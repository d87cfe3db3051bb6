/**
 * @file
 * Dependency-free embedded HTTP/1.0 scrape server (seer-pulse,
 * DESIGN.md §16).
 *
 * The server exists so a running monitor can be a Prometheus scrape
 * target without pulling a web framework into the build: it binds a
 * loopback listener, runs a blocking accept loop on one dedicated
 * thread, and answers GET requests by exact path match against a
 * handler table frozen before start(). One request per connection
 * (Connection: close), requests larger than a small fixed bound are
 * rejected with 431, and anything that is not a well-formed GET gets
 * 400/405 — a scrape endpoint has no business accepting more.
 *
 * Handlers run on the server thread, never on the monitor's feed
 * path. The intended pattern (TelemetryServer in src/obs/pulse.hpp)
 * is push-model: the monitor renders response bodies at snapshot
 * cadence and publishes them under a mutex; the handler only copies
 * the latest published string. The checker is never locked by a
 * scrape.
 */

#ifndef CLOUDSEER_COMMON_HTTP_SERVER_HPP
#define CLOUDSEER_COMMON_HTTP_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

namespace cloudseer::common {

/** One response from a path handler. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "text/plain; charset=utf-8";
    std::string body;
};

/**
 * Minimal blocking HTTP server. Register handlers, start(), stop().
 * start()/stop() are not thread-safe against each other; handlers
 * are invoked on the internal accept thread.
 */
class HttpServer
{
  public:
    using Handler = std::function<HttpResponse()>;

    /**
     * @param bind_address dotted-quad to bind (default loopback —
     *        a scrape endpoint should not be internet-facing by
     *        accident).
     * @param port TCP port; 0 asks the kernel for an ephemeral port
     *        (read it back with boundPort() after start()).
     */
    explicit HttpServer(std::string bind_address = "127.0.0.1",
                        std::uint16_t port = 0);
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /**
     * Register a handler for an exact path ("/metrics"). Query
     * strings are stripped before matching. Must be called before
     * start(); the table is immutable while the server runs.
     */
    void handle(const std::string &path, Handler handler);

    /**
     * Bind, listen, and launch the accept thread. Returns false
     * (with error() set) when the socket cannot be bound.
     */
    bool start();

    /** Shut the listener down and join the accept thread. */
    void stop();

    bool running() const { return serving.load(); }

    /** The bound port (resolves port 0), valid after start(). */
    std::uint16_t boundPort() const { return port; }

    const std::string &error() const { return lastError; }

    /** Requests larger than this many bytes are rejected with 431. */
    static constexpr std::size_t kMaxRequestBytes = 8192;

  private:
    std::string address;
    std::uint16_t port;
    int listenFd = -1;
    std::thread acceptThread;
    std::atomic<bool> serving{false};
    std::map<std::string, Handler> handlers;
    std::string lastError;

    void acceptLoop();
    void serveConnection(int fd);
};

/**
 * Blocking GET helper for tools and tests: fetches
 * http://host:port/path with a short timeout. Returns false on
 * connect/read failure; on success fills status and body.
 */
bool httpGet(const std::string &host, std::uint16_t port,
             const std::string &path, int &status, std::string &body,
             double timeout_seconds = 5.0);

} // namespace cloudseer::common

#endif // CLOUDSEER_COMMON_HTTP_SERVER_HPP
