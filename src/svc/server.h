/**
 * @file
 * The daemon's socket front end: an AF_UNIX stream listener that
 * feeds frames into a CompileService.
 *
 * One handler thread per connected client; each handler loops
 * readFrame → dispatch → writeFrame until the client hangs up. A
 * client that dies mid-compile does NOT abort its request: the
 * handler finishes the compile, publishes the result to the
 * coalescer and the on-disk store, and only then discovers the dead
 * peer (EPIPE on the response write, surfaced as an exception by
 * writeFrame, never a SIGPIPE) — so a second client waiting on the
 * same request always gets the artifact.
 *
 * Handler threads are detached, so a finished connection costs
 * nothing after it closes; the live-connection list is what stop()
 * waits on.
 *
 * Shutdown protocol: a ShutdownReq frame acks, then wakes
 * waitForShutdownRequest(); `pldd` then calls stop(), which stops
 * accepting, shuts down every live client connection (so handlers
 * blocked in readFrame wake with EOF instead of waiting for clients
 * that may never hang up), waits until every handler has
 * deregistered its connection, and removes the socket.
 */

#ifndef PLD_SVC_SERVER_H
#define PLD_SVC_SERVER_H

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/service.h"

namespace pld {
namespace svc {

class DaemonServer
{
  public:
    /**
     * @p idle_timeout_ms, when nonzero, bounds how long a handler
     * waits in readFrame for a client's next request (SO_RCVTIMEO on
     * the accepted fd): a client that connected and went silent is
     * dropped with a warning instead of pinning a handler thread
     * forever. Responses get the same bound as a send timeout, so a
     * client that stopped draining cannot wedge a handler either.
     */
    DaemonServer(CompileService &svc, std::string socket_path,
                 int idle_timeout_ms = 0);
    ~DaemonServer();

    DaemonServer(const DaemonServer &) = delete;
    DaemonServer &operator=(const DaemonServer &) = delete;

    /** Bind + listen + start the accept thread. fatal()s if the
     * socket path is unusable (too long, bind refused). */
    void start();

    /** Stop accepting, wait for every live connection's handler to
     * finish, unlink the socket. Idempotent. */
    void stop();

    /** Block until some client sends ShutdownReq (or stop() runs). */
    void waitForShutdownRequest();

    const std::string &socketPath() const { return path_; }

  private:
    void acceptLoop();
    void handleClient(int fd);

    CompileService &svc_;
    std::string path_;
    int idleTimeoutMs_ = 0;
    int listenFd_ = -1;

    std::thread acceptThread_;
    std::mutex mtx_;
    /** Signals a shutdown request, stop(), and a handler leaving. */
    std::condition_variable cv_;
    std::vector<int> clientFds_; ///< live connections (under mtx_)
    bool stopping_ = false;
    bool shutdownRequested_ = false;
};

} // namespace svc
} // namespace pld

#endif // PLD_SVC_SERVER_H
