#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <sstream>

#include "reply.h"

extern char** environ;

namespace perfbench {

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool ReadProcStats(pid_t pid, ProcStats* out) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) return false;
  std::istringstream fields(text.substr(paren + 2));
  std::string token;
  unsigned long long utime = 0, stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int field = 3; field <= 15 && fields >> token; ++field) {
    if (field == 14) utime = std::strtoull(token.c_str(), nullptr, 10);
    if (field == 15) stime = std::strtoull(token.c_str(), nullptr, 10);
  }
  out->cpu_s = static_cast<double>(utime + stime) /
               static_cast<double>(sysconf(_SC_CLK_TCK));
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      out->hwm_mb = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      return true;
    }
  }
  return false;
}

// ---- CPU placement --------------------------------------------------------

namespace {

cpu_set_t daemon_cpus;
bool daemon_cpus_set = false;

}  // namespace

void PinClientCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < 2) {
    return;
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  daemon_cpus = allowed;
  CPU_CLR(last, &daemon_cpus);
  daemon_cpus_set = true;
  cpu_set_t client;
  CPU_ZERO(&client);
  CPU_SET(last, &client);
  sched_setaffinity(0, sizeof(client), &client);
}

// ---- Daemon ---------------------------------------------------------------

Daemon::~Daemon() { Kill(); }

void Daemon::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
}

bool Daemon::Start(const std::string& binary,
                   const std::vector<std::string>& flags,
                   const std::string& log_path, std::string* error) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::vector<std::string> args = {binary, "--port", "0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  // The daemon must run exactly the pinned flags: drop any GEOPRIV_*
  // variable (thread count, armed faults, forced backends) it would read.
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GEOPRIV_", 8) != 0) envp.push_back(*e);
  }
  envp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], 1);
  posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                             argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];
  if (rc != 0) {
    *error = "cannot spawn " + binary + ": " + std::strerror(rc);
    close(out_fd_);
    out_fd_ = -1;
    return false;
  }
  pid_ = pid;
  // Threads the daemon starts later inherit this mask.
  if (daemon_cpus_set) sched_setaffinity(pid_, sizeof(daemon_cpus), &daemon_cpus);

  // Wait for "geopriv_serve listening on 127.0.0.1:<port>".
  std::string announce;
  const int64_t deadline = NowNs() + 60 * 1000000000LL;
  while (announce.find('\n') == std::string::npos) {
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    pollfd p{out_fd_, POLLIN, 0};
    if (left_ms <= 0 || poll(&p, 1, static_cast<int>(left_ms)) <= 0) {
      *error = "daemon did not announce its port";
      Kill();
      return false;
    }
    char buf[256];
    const ssize_t n = read(out_fd_, buf, sizeof(buf));
    if (n <= 0) {
      *error = "daemon exited before announcing (see " + log_path + ")";
      Kill();
      return false;
    }
    announce.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = announce.rfind(':', announce.find('\n'));
  port_ = colon == std::string::npos ? 0 : std::atoi(announce.c_str() + colon + 1);
  if (port_ <= 0) {
    *error = "unreadable announce line: " + announce;
    Kill();
    return false;
  }
  return true;
}

bool Daemon::Stop(std::string* error) {
  if (pid_ <= 0) return true;
  const int fd = Connect(port_);
  std::string reply;
  const bool sent = fd >= 0 && Call(fd, "{\"op\":\"shutdown\"}", &reply);
  if (fd >= 0) close(fd);
  int status = 0;
  const int64_t deadline = NowNs() + 30 * 1000000000LL;
  while (sent) {
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      close(out_fd_);
      out_fd_ = -1;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return true;
      *error = "daemon exited uncleanly";
      return false;
    }
    if (NowNs() > deadline) break;
    usleep(1000);
  }
  *error = sent ? "daemon did not exit after shutdown" : "shutdown not answered";
  Kill();
  return false;
}

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool Call(int fd, const std::string& line, std::string* reply) {
  if (!SendAll(fd, line + "\n")) return false;
  reply->clear();
  // Control traffic only (set-up, pings, stats): peek for the newline,
  // then take exactly one line.
  char buf[4096];
  while (true) {
    const ssize_t n = recv(fd, buf, sizeof(buf), MSG_PEEK);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    const void* nl = std::memchr(buf, '\n', static_cast<size_t>(n));
    const size_t take = nl != nullptr
                            ? static_cast<size_t>(static_cast<const char*>(nl) - buf) + 1
                            : static_cast<size_t>(n);
    const ssize_t got = recv(fd, buf, take, 0);
    if (got <= 0) return false;
    reply->append(buf, static_cast<size_t>(got));
    if (nl != nullptr) break;
  }
  reply->pop_back();  // the newline
  return true;
}

// ---- Checker --------------------------------------------------------------

Checker::Checker(const Workload& w)
    : w_(w), levels_(w.start_level), losses_(w.sigs.size()) {}

void Checker::StartRound() {
  levels_ = w_.start_level;
  setup_level_ = 1.0;
}

bool Checker::Fail(const std::string& why, std::string_view line) {
  ++failures_;
  if (first_failure_.empty()) {
    first_failure_ = why + ": " + std::string(line.substr(0, 400));
  }
  return false;
}

bool Checker::Verify(int sig, int samples, double* level, std::string_view line,
                     ReplyInfo* info) {
  const Signature& s = w_.sigs[static_cast<size_t>(sig)];
  ReplyObject reply;
  if (!reply.Parse(line)) return Fail("malformed reply", line);
  bool ok = false;
  if (reply.Str("op") != "query" || !reply.Bool("ok", &ok)) {
    return Fail("not a query reply", line);
  }
  if (!ok) return Fail("query failed", line);
  if (reply.Str("signature") != s.key) return Fail("wrong signature", line);
  std::vector<int64_t> released;
  if (!reply.Ints("released", &released) ||
      static_cast<int>(released.size()) != samples) {
    return Fail("wrong number of released values", line);
  }
  for (int64_t v : released) {
    if (v < 0 || v > s.n) return Fail("released value outside 0..n", line);
  }
  // The ledger folds K releases one product at a time.
  double expected = *level;
  for (int k = 0; k < samples; ++k) expected *= s.alpha_value;
  double got = 0.0;
  if (!reply.Number("level", &got) || got != expected) {
    return Fail("level is not the consumer's running product", line);
  }
  *level = expected;
  const std::string_view loss = reply.Str("loss");
  std::string& known = losses_[static_cast<size_t>(sig)];
  if (loss.empty()) return Fail("missing loss", line);
  if (known.empty()) {
    known = std::string(loss);
  } else if (known != loss) {
    return Fail("loss differs from an earlier reply for this signature", line);
  }
  if (info != nullptr) {
    info->released = std::move(released);
    info->loss = known;
    reply.Int("trace_queue_us", &info->queue_us);
    reply.Int("trace_persist_us", &info->persist_us);
  }
  return true;
}

bool Checker::Check(const Request& r, std::string_view line, ReplyInfo* info) {
  return Verify(r.sig, r.samples, &levels_[static_cast<size_t>(r.consumer)],
                line, info);
}

bool Checker::CheckSetup(int sig, std::string_view line, ReplyInfo* info) {
  return Verify(sig, 1, &setup_level_, line, info);
}

// ---- RunPhase -------------------------------------------------------------

namespace {

constexpr int kPing = -1;

struct Conn {
  int fd = -1;
  bool dead = false;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<int> pending;  // request index per reply owed, kPing for fillers
  std::vector<int> queue;   // closed loop: this connection's requests
  size_t next = 0;
  int measured_pending = 0;
};

bool Flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                           c.out.size() - c.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n <= 0) return false;
    c.out_off += static_cast<size_t>(n);
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

}  // namespace

PhaseResult RunPhase(const Workload& w, const std::vector<Request>& requests,
                     const std::vector<int>& fds, bool trace,
                     double stop_after_s, Checker* checker) {
  const size_t total = requests.size();
  PhaseResult result;
  result.latency_us.assign(total, std::numeric_limits<double>::infinity());
  result.attempted.assign(total, 0);
  result.info.resize(total);
  result.from_ns.assign(total, 0);
  result.reply_ns.assign(total, 0);
  std::vector<std::string> lines(total);
  for (size_t i = 0; i < total; ++i) lines[i] = QueryLine(w, requests[i], trace);

  std::vector<Conn> conns(fds.size());
  const int ep = epoll_create1(EPOLL_CLOEXEC);
  for (size_t c = 0; c < fds.size(); ++c) {
    conns[c].fd = fds[c];
    fcntl(fds[c], F_SETFL, fcntl(fds[c], F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<uint32_t>(c);
    epoll_ctl(ep, EPOLL_CTL_ADD, fds[c], &ev);
  }
  for (size_t i = 0; i < total; ++i) {
    conns[static_cast<size_t>(requests[i].conn)].queue.push_back(
        static_cast<int>(i));
  }

  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const bool timed = !w.open_loop && stop_after_s > 0;
  const int64_t stop_issuing = start + static_cast<int64_t>(stop_after_s * 1e9);
  // A phase that cannot finish is a failure, not a hang.
  const int64_t hard_deadline = start + 100 * 1000000000LL;
  int64_t last_reply = start;
  int64_t last_filler = start;
  size_t next_due = 0;  // open loop
  size_t outstanding = 0;
  bool issuing = true;
  std::vector<epoll_event> events(fds.size() + 1);
  std::string_view line;

  auto enqueue = [&](size_t i, int64_t now) {
    Conn& c = conns[static_cast<size_t>(requests[i].conn)];
    if (c.dead) return;
    c.out += lines[i];
    c.out += '\n';
    c.pending.push_back(static_cast<int>(i));
    ++c.measured_pending;
    ++outstanding;
    result.from_ns[i] = w.open_loop ? start + requests[i].due_ns : now;
    result.attempted[i] = 1;
    ++result.attempted_count;
  };

  while (true) {
    int64_t now = NowNs();
    if (w.open_loop) {
      while (next_due < total && start + requests[next_due].due_ns <= now) {
        enqueue(next_due, now);
        result.lateness_us.push_back(
            static_cast<double>(now - start - requests[next_due].due_ns) / 1e3);
        ++next_due;
      }
      issuing = next_due < total;
      // Drain: keep each connection that still owes replies busy with
      // unmeasured pings, as continuing traffic would.  Without them the
      // last replies of a run wait on a delayed ACK that steady traffic
      // never sees.
      if (!issuing && outstanding > 0 && now - last_filler > 200000) {
        for (Conn& c : conns) {
          if (c.measured_pending > 0 && !c.dead) {
            c.out += "{\"op\":\"ping\"}\n";
            c.pending.push_back(kPing);
          }
        }
        last_filler = now;
      }
    } else {
      issuing = false;
      for (Conn& c : conns) {
        if (c.dead || c.measured_pending > 0 || c.next >= c.queue.size()) continue;
        if (timed && now >= stop_issuing) continue;
        enqueue(static_cast<size_t>(c.queue[c.next++]), now);
      }
      for (const Conn& c : conns) {
        if (!c.dead && c.next < c.queue.size() &&
            !(timed && now >= stop_issuing)) {
          issuing = true;
        }
      }
    }
    for (Conn& c : conns) {
      if (!c.dead && !c.out.empty() && !Flush(c)) c.dead = true;
    }
    if (!issuing && outstanding == 0) break;
    if (now > hard_deadline) break;
    bool all_dead = true;
    for (const Conn& c : conns) all_dead = all_dead && c.dead;
    if (all_dead) break;

    // Open loop spins so sends leave on schedule: a client that slept until
    // 50 us before each send woke up to 1 ms late (p99) on this kind of
    // virtual machine.  Closed loop blocks.
    const int timeout_ms = w.open_loop ? 0 : 1;
    const int n = epoll_wait(ep, events.data(), static_cast<int>(events.size()),
                             timeout_ms);
    if (n <= 0) continue;
    now = NowNs();
    for (int e = 0; e < n; ++e) {
      Conn& c = conns[events[static_cast<size_t>(e)].data.u32];
      if (c.dead) continue;
      char buf[65536];
      while (true) {
        const ssize_t got = recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (got > 0) {
          c.in.append(buf, static_cast<size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        c.dead = true;  // EOF or error: what is still owed is lost
        break;
      }
      size_t begin = 0;
      while (true) {
        const size_t nl = c.in.find('\n', begin);
        if (nl == std::string::npos) break;
        line = std::string_view(c.in).substr(begin, nl - begin);
        begin = nl + 1;
        if (c.pending.empty()) {
          checker->Fail("reply to no request", line);
          continue;
        }
        const int idx = c.pending.front();
        c.pending.pop_front();
        if (idx == kPing) continue;
        --c.measured_pending;
        --outstanding;
        const size_t i = static_cast<size_t>(idx);
        result.reply_ns[i] = now;
        if (checker->Check(requests[i], line, &result.info[i])) {
          ++result.correct;
          result.latency_us[i] = static_cast<double>(now - result.from_ns[i]) / 1e3;
        }
        last_reply = now;
      }
      c.in.erase(0, begin);
      if (c.dead) {
        outstanding -= static_cast<size_t>(c.measured_pending);
        c.measured_pending = 0;
        c.pending.clear();
      }
    }
  }
  close(ep);
  result.seconds = static_cast<double>(last_reply - start) / 1e9;
  result.client_cpu_s = ProcessCpuSeconds() - cpu0;
  // Open loop: every scheduled request counts as attempted, sent or not.
  if (w.open_loop) result.attempted_count = static_cast<int64_t>(total);
  return result;
}

}  // namespace perfbench
