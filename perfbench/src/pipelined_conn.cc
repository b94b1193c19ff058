#include "pipelined_conn.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

using hsdb::Status;

PipelinedConn::~PipelinedConn() {
  if (fd_ != -1) ::close(fd_);
}

Status PipelinedConn::Connect(uint16_t port) {
  if (fd_ != -1) return Status::FailedPrecondition("already connected");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(std::string("socket(): ") +
                                      std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::Internal(std::string("connect(): ") +
                                std::strerror(errno));
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  fd_ = fd;
  return Status::OK();
}

void PipelinedConn::Queue(const std::string& line, uint64_t tag) {
  out_ += line;
  out_.push_back('\n');
  tags_.push_back(tag);
}

Status PipelinedConn::Flush() {
  while (!out_.empty()) {
    ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      if (errno == EINTR) continue;
      return Status::Internal(std::string("send(): ") + std::strerror(errno));
    }
    out_.erase(0, static_cast<size_t>(n));
  }
  return Status::OK();
}

Status PipelinedConn::Receive(
    const std::function<void(uint64_t, const hsdb::server::Reply&)>&
        on_reply) {
  char chunk[8192];
  for (;;) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return Status::Internal("connection closed by server");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return Status::Internal(std::string("recv(): ") + std::strerror(errno));
    }
    in_.append(chunk, static_cast<size_t>(n));
  }
  // Acknowledge at once: the server writes pipelined replies back to back,
  // and a delayed ACK would hold the next one behind Nagle's algorithm.
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  for (;;) {
    hsdb::server::Reply reply;
    HSDB_ASSIGN_OR_RETURN(bool complete, ParseOne(&reply));
    if (!complete) return Status::OK();
    if (tags_.empty()) return Status::Internal("reply without a request");
    const uint64_t tag = tags_.front();
    tags_.pop_front();
    on_reply(tag, reply);
  }
}

hsdb::Result<bool> PipelinedConn::ParseOne(hsdb::server::Reply* reply) {
  const size_t head_end = in_.find('\n');
  if (head_end == std::string::npos) return false;
  const std::string head = in_.substr(0, head_end);
  if (head.rfind("err ", 0) == 0) {
    reply->ok = false;
    reply->error = head.substr(4);
    in_.erase(0, head_end + 1);
    return true;
  }
  if (head.rfind("ok ", 0) != 0) {
    return Status::Internal("malformed response head '" + head + "'");
  }
  const long long count = std::strtoll(head.c_str() + 3, nullptr, 10);
  if (count < 0) return Status::Internal("malformed response '" + head + "'");
  // The block is complete once `count` more newline-terminated lines are
  // buffered behind the head.
  size_t pos = head_end + 1;
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(count));
  for (long long i = 0; i < count; ++i) {
    const size_t nl = in_.find('\n', pos);
    if (nl == std::string::npos) return false;
    lines.push_back(in_.substr(pos, nl - pos));
    pos = nl + 1;
  }
  reply->ok = true;
  reply->lines = std::move(lines);
  in_.erase(0, pos);
  return true;
}

}  // namespace perfbench
