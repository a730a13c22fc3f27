// Crash- and power-loss-safe file replacement.
//
// Every persisted artifact that is rewritten whole (the ledger snapshot,
// cache entries, bases and the cache manifest) goes through one helper:
//
//   write "<path>.tmp" -> fsync it -> rename over <path> -> fsync the dir
//
// The tmp fsync orders the data before the rename (without it a power
// loss can publish a rename whose data never reached the disk: an empty
// or zero-filled committed file); the directory fsync makes the rename
// itself durable.  A crash at any point leaves either the previous file
// or the new one under <path>, plus at most "*.tmp" debris that the
// loaders sweep; a returned error has already unlinked the tmp.

#ifndef GEOPRIV_UTIL_DURABLE_FILE_H_
#define GEOPRIV_UTIL_DURABLE_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace geopriv {

/// Replaces `path` with `head` + `tail` as described above, creating the
/// parent directory if needed.  `write_fault` fires between the two parts
/// (so an injected abort leaves a genuinely torn tmp file on disk) and
/// `rename_fault` between the tmp fsync and the rename.
Status ReplaceFileDurably(const std::string& path, std::string_view head,
                          std::string_view tail, const char* write_fault,
                          const char* rename_fault);

/// fsyncs the directory `dir`, making entries created or renamed in it
/// durable.
Status SyncDirectory(const std::string& dir);

/// write(2) of all of `data`, retrying short writes and EINTR.
Status WriteAll(int fd, std::string_view data);

/// Status::Internal("<what> '<path>': <strerror(errno)>") for the system
/// call that just failed.
Status Errno(const std::string& what, const std::string& path);

}  // namespace geopriv

#endif  // GEOPRIV_UTIL_DURABLE_FILE_H_
