#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>

#include "server/listener.h"

namespace hsdb {
namespace server {

Client::~Client() { Close(); }

Status Client::Connect(const std::string& host, uint16_t port) {
  if (fd_ != -1) return Status::FailedPrecondition("already connected");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad IPv4 address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Errno("connect");
    ::close(fd);
    return s;
  }
  fd_ = fd;
  buffer_.clear();
  return Status::OK();
}

void Client::Close() {
  if (fd_ != -1) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Status Client::ReadLine(std::string* out) {
  for (;;) {
    size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      out->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      if (!out->empty() && out->back() == '\r') out->pop_back();
      return Status::OK();
    }
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return Status::Internal("connection closed by server");
    if (n < 0) return Errno("recv");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Result<Reply> Client::RoundTrip(const std::string& request) {
  if (fd_ == -1) return Status::FailedPrecondition("not connected");
  if (!SendAll(fd_, request + '\n')) return Errno("send");
  std::string head;
  HSDB_RETURN_IF_ERROR(ReadLine(&head));
  Reply reply;
  if (head.rfind("err ", 0) == 0) {
    reply.ok = false;
    reply.error = head.substr(4);
    return reply;
  }
  if (head.rfind("ok ", 0) != 0) {
    return Status::Internal("malformed response head '" + head + "'");
  }
  errno = 0;
  char* end = nullptr;
  long long count = std::strtoll(head.c_str() + 3, &end, 10);
  if (end == head.c_str() + 3 || count < 0 || errno == ERANGE) {
    return Status::Internal("malformed response count '" + head + "'");
  }
  reply.ok = true;
  reply.lines.reserve(static_cast<size_t>(count));
  for (long long i = 0; i < count; ++i) {
    std::string line;
    HSDB_RETURN_IF_ERROR(ReadLine(&line));
    reply.lines.push_back(std::move(line));
  }
  return reply;
}

}  // namespace server
}  // namespace hsdb
