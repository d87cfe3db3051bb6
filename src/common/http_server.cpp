#include "common/http_server.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <unistd.h>

namespace cloudseer::common {

namespace {

const char *
statusText(int status)
{
    switch (status) {
    case 200:
        return "OK";
    case 400:
        return "Bad Request";
    case 404:
        return "Not Found";
    case 405:
        return "Method Not Allowed";
    case 431:
        return "Request Header Fields Too Large";
    case 503:
        return "Service Unavailable";
    default:
        return "Error";
    }
}

/** Write the whole buffer, riding out EINTR and short writes. */
bool
writeAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

void
sendResponse(int fd, const HttpResponse &response)
{
    std::ostringstream head;
    head << "HTTP/1.0 " << response.status << " "
         << statusText(response.status) << "\r\n"
         << "Content-Type: " << response.contentType << "\r\n"
         << "Content-Length: " << response.body.size() << "\r\n"
         << "Connection: close\r\n\r\n";
    std::string wire = head.str() + response.body;
    writeAll(fd, wire);
}

/**
 * Swallow whatever the client is still sending (bounded by the socket
 * timeout and a 1 MiB cap). Used after answering a request we stopped
 * reading early: closing with unread bytes in the receive buffer
 * makes the kernel send RST, and the client may then never see the
 * status line we just wrote.
 */
void
drainRequest(int fd)
{
    char buf[4096];
    std::size_t total = 0;
    while (total < (1u << 20)) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // peer closed or timed out
        total += static_cast<std::size_t>(n);
    }
}

} // namespace

HttpServer::HttpServer(std::string bind_address, std::uint16_t port)
    : address(std::move(bind_address)), port(port)
{
}

HttpServer::~HttpServer() { stop(); }

void
HttpServer::handle(const std::string &path, Handler handler)
{
    handlers[path] = std::move(handler);
}

bool
HttpServer::start()
{
    if (serving.load())
        return true;

    listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd < 0) {
        lastError = std::strerror(errno);
        return false;
    }
    int one = 1;
    ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
        lastError = "invalid bind address: " + address;
        ::close(listenFd);
        listenFd = -1;
        return false;
    }
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd, 16) != 0) {
        lastError = std::strerror(errno);
        ::close(listenFd);
        listenFd = -1;
        return false;
    }

    // Resolve the ephemeral port the kernel picked for port 0.
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listenFd,
                      reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) == 0)
        port = ntohs(bound.sin_port);

    serving.store(true);
    acceptThread = std::thread([this] { acceptLoop(); });
    return true;
}

void
HttpServer::stop()
{
    if (!serving.exchange(false)) {
        if (acceptThread.joinable())
            acceptThread.join();
        return;
    }
    // shutdown() wakes the blocking accept(); close() alone is not
    // guaranteed to on all kernels.
    if (listenFd >= 0)
        ::shutdown(listenFd, SHUT_RDWR);
    if (acceptThread.joinable())
        acceptThread.join();
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
    }
}

void
HttpServer::acceptLoop()
{
    while (serving.load()) {
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listener shut down (or unrecoverable)
        }
        if (!serving.load()) {
            ::close(fd);
            break;
        }
        // A stalled scraper must not wedge the endpoint forever.
        timeval tv{};
        tv.tv_sec = 5;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        serveConnection(fd);
        ::close(fd);
    }
}

void
HttpServer::serveConnection(int fd)
{
    std::string request;
    char buf[1024];
    bool complete = false;
    while (request.size() <= kMaxRequestBytes) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            break; // peer closed or timed out
        }
        request.append(buf, static_cast<std::size_t>(n));
        if (request.find("\r\n\r\n") != std::string::npos ||
            request.find("\n\n") != std::string::npos) {
            complete = true;
            break;
        }
    }
    if (request.size() > kMaxRequestBytes) {
        sendResponse(fd, {431, "text/plain; charset=utf-8",
                          "request too large\n"});
        drainRequest(fd);
        return;
    }
    if (!complete) {
        sendResponse(fd, {400, "text/plain; charset=utf-8",
                          "malformed request\n"});
        return;
    }

    // Request line: METHOD SP PATH SP VERSION.
    std::istringstream line(request.substr(0, request.find('\n')));
    std::string method, target, version;
    line >> method >> target >> version;
    if (method.empty() || target.empty() || target[0] != '/') {
        sendResponse(fd, {400, "text/plain; charset=utf-8",
                          "malformed request line\n"});
        return;
    }
    if (method != "GET") {
        sendResponse(fd, {405, "text/plain; charset=utf-8",
                          "only GET is supported\n"});
        return;
    }
    std::size_t query = target.find('?');
    if (query != std::string::npos)
        target.resize(query);

    auto it = handlers.find(target);
    if (it == handlers.end()) {
        sendResponse(fd, {404, "text/plain; charset=utf-8",
                          "unknown path: " + target + "\n"});
        return;
    }
    sendResponse(fd, it->second());
}

bool
httpGet(const std::string &host, std::uint16_t port,
        const std::string &path, int &status, std::string &body,
        double timeout_seconds)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return false;
    }

    std::string request = "GET " + path + " HTTP/1.0\r\nHost: " +
                          host + "\r\nConnection: close\r\n\r\n";
    if (!writeAll(fd, request)) {
        ::close(fd);
        return false;
    }

    // A broken or hostile server must not balloon the client: cap the
    // response at 64 MiB (every document this client fetches is far
    // smaller) and fail instead of buffering without bound.
    constexpr std::size_t kMaxResponseBytes = 64u << 20;
    std::string wire;
    char buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        wire.append(buf, static_cast<std::size_t>(n));
        if (wire.size() > kMaxResponseBytes) {
            ::close(fd);
            return false;
        }
    }
    ::close(fd);

    // Status line: HTTP/x.y SP CODE SP REASON.
    std::size_t space = wire.find(' ');
    if (space == std::string::npos)
        return false;
    status = std::atoi(wire.c_str() + space + 1);
    std::size_t header_end = wire.find("\r\n\r\n");
    std::size_t body_start =
        header_end == std::string::npos ? std::string::npos
                                        : header_end + 4;
    if (body_start == std::string::npos) {
        header_end = wire.find("\n\n");
        body_start = header_end == std::string::npos
                         ? std::string::npos
                         : header_end + 2;
    }
    body = body_start == std::string::npos ? ""
                                           : wire.substr(body_start);
    return status > 0;
}

} // namespace cloudseer::common
