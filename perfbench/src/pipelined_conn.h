// PipelinedConn: a non-blocking line-protocol connection for the open-loop
// load generator. Requests are written as soon as they are due, without
// waiting for earlier replies; replies come back in request order (the
// server answers one connection's lines sequentially), so a FIFO of
// in-flight tags pairs each reply with its request.
#ifndef PERFBENCH_PIPELINED_CONN_H_
#define PERFBENCH_PIPELINED_CONN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "server/client.h"

namespace perfbench {

class PipelinedConn {
 public:
  PipelinedConn() = default;
  ~PipelinedConn();
  HSDB_DISALLOW_COPY_AND_ASSIGN(PipelinedConn);

  /// Connects to 127.0.0.1:port and switches the socket to non-blocking,
  /// no-delay mode (pipelined small writes must not wait on Nagle).
  hsdb::Status Connect(uint16_t port);

  /// Queues one request line; `tag` comes back with its reply.
  void Queue(const std::string& line, uint64_t tag);

  /// Writes as much queued output as the socket accepts.
  hsdb::Status Flush();

  /// Reads what is available and hands every complete reply to `on_reply`
  /// in request order.
  hsdb::Status Receive(
      const std::function<void(uint64_t, const hsdb::server::Reply&)>&
          on_reply);

  int fd() const { return fd_; }
  bool wants_write() const { return !out_.empty(); }
  size_t in_flight() const { return tags_.size(); }

 private:
  /// Pops one complete reply block off in_, if there is one.
  hsdb::Result<bool> ParseOne(hsdb::server::Reply* reply);

  int fd_ = -1;
  std::string out_;
  std::string in_;
  std::deque<uint64_t> tags_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINED_CONN_H_
