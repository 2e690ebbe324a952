#include "svc/server.h"

#include <algorithm>
#include <cstring>
#include <system_error>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.h"

namespace pld {
namespace svc {

DaemonServer::DaemonServer(CompileService &svc,
                           std::string socket_path,
                           int idle_timeout_ms)
    : svc_(svc), path_(std::move(socket_path)),
      idleTimeoutMs_(idle_timeout_ms < 0 ? 0 : idle_timeout_ms)
{
}

DaemonServer::~DaemonServer() { stop(); }

void
DaemonServer::start()
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path_.size() >= sizeof(addr.sun_path))
        pld_fatal("pldd: socket path too long (%zu bytes, max %zu): "
                  "%s",
                  path_.size(), sizeof(addr.sun_path) - 1,
                  path_.c_str());
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        pld_fatal("pldd: socket(): %s", std::strerror(errno));
    ::unlink(path_.c_str()); // stale socket from a previous run
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        pld_fatal("pldd: bind(%s): %s", path_.c_str(),
                  std::strerror(errno));
    if (::listen(listenFd_, 64) != 0)
        pld_fatal("pldd: listen(%s): %s", path_.c_str(),
                  std::strerror(errno));

    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
DaemonServer::stop()
{
    {
        std::lock_guard<std::mutex> lk(mtx_);
        if (stopping_)
            return;
        stopping_ = true;
        cv_.notify_all();
    }
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR); // unblocks accept()
    if (acceptThread_.joinable())
        acceptThread_.join();
    // Shut down every live connection: a handler blocked in
    // readFrame wakes with EOF instead of waiting for a client that
    // may never hang up. Handlers remove their fd under mtx_ before
    // closing it, so nothing here touches a recycled descriptor.
    {
        std::lock_guard<std::mutex> lk(mtx_);
        for (int fd : clientFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    // In-flight requests still run to completion (and publish to the
    // store/coalescer); new connections are already refused. Handlers
    // are detached, so wait for each to deregister its connection.
    {
        std::unique_lock<std::mutex> lk(mtx_);
        cv_.wait(lk, [&] { return clientFds_.empty(); });
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    ::unlink(path_.c_str());
}

void
DaemonServer::waitForShutdownRequest()
{
    std::unique_lock<std::mutex> lk(mtx_);
    cv_.wait(lk, [&] { return shutdownRequested_ || stopping_; });
}

void
DaemonServer::acceptLoop()
{
    for (;;) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener shut down
        }
        if (idleTimeoutMs_ > 0) {
            timeval tv{};
            tv.tv_sec = idleTimeoutMs_ / 1000;
            tv.tv_usec = (idleTimeoutMs_ % 1000) * 1000;
            ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv,
                         sizeof(tv));
            ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv,
                         sizeof(tv));
        }
        std::lock_guard<std::mutex> lk(mtx_);
        if (stopping_) {
            ::close(fd);
            return;
        }
        // Detached: a finished connection's thread exits and frees
        // its stack at once instead of living until stop(). The
        // handler deregisters under mtx_, so registering after the
        // spawn (still under the lock) cannot race it.
        try {
            std::thread([this, fd] { handleClient(fd); }).detach();
        } catch (const std::system_error &e) {
            pld_warn("pldd: dropping client, no handler thread: %s",
                     e.what());
            ::close(fd);
            continue;
        }
        clientFds_.push_back(fd);
    }
}

void
DaemonServer::handleClient(int fd)
{
    std::vector<uint8_t> payload;
    bool quit = false;
    while (!quit) {
        try {
            if (!readFrame(fd, &payload))
                break; // clean hang-up
        } catch (const CompileError &e) {
            if (e.diag().code == CompileCode::DeadlineExceeded)
                pld_warn("pldd: dropping idle client (no request "
                         "within %d ms)",
                         idleTimeoutMs_);
            else
                pld_warn("pldd: dropping client: %s",
                         e.diag().render().c_str());
            break;
        }
        if (payload.empty())
            break;

        try {
            ByteReader r(payload);
            auto type = static_cast<MsgType>(r.u8());
            switch (type) {
            case MsgType::CompileReq: {
                CompileResponse resp =
                    svc_.compile(CompileRequest::decode(r));
                writeFrame(fd, resp.encode());
                break;
            }
            case MsgType::SwapReq: {
                CompileResponse resp =
                    svc_.swap(SwapRequest::decode(r));
                writeFrame(fd, resp.encode());
                break;
            }
            case MsgType::PingReq: {
                uint64_t nonce = r.u64();
                ByteWriter w;
                w.u8(static_cast<uint8_t>(MsgType::PingResp));
                w.u64(nonce);
                writeFrame(fd, w.take());
                break;
            }
            case MsgType::StatsReq: {
                ByteWriter w;
                w.u8(static_cast<uint8_t>(MsgType::StatsResp));
                w.str(svc_.statsText());
                writeFrame(fd, w.take());
                break;
            }
            case MsgType::ShutdownReq: {
                ByteWriter w;
                w.u8(static_cast<uint8_t>(MsgType::ShutdownAck));
                writeFrame(fd, w.take());
                std::lock_guard<std::mutex> lk(mtx_);
                shutdownRequested_ = true;
                cv_.notify_all();
                quit = true;
                break;
            }
            default: {
                // Unknown type: answer with a structured failure so
                // a confused client is told, not hung up on.
                Diagnostic d;
                d.code = CompileCode::CompileException;
                d.stage = CompileStage::Link;
                d.severity = DiagSeverity::Error;
                d.detail = "unknown message type " +
                           std::to_string(int(type));
                CompileResponse resp;
                resp.status = RespStatus::Failed;
                resp.diags.add(d);
                writeFrame(fd, resp.encode());
                break;
            }
            }
        } catch (const CompileError &e) {
            // Malformed request payload, or the client died while we
            // were writing its response (EPIPE from writeFrame). The
            // compile itself — if any — already published its result
            // to the coalescer and the store, so waiters on the same
            // request are unaffected; only this connection ends.
            pld_warn("pldd: client request aborted: %s",
                     e.diag().render().c_str());
            break;
        }
    }
    // Deregister before closing so stop() never shutdown()s a
    // descriptor number the kernel has already recycled. Notify under
    // the lock: once it is released, stop() may return and the server
    // may be destroyed, so nothing after it may touch a member.
    {
        std::lock_guard<std::mutex> lk(mtx_);
        auto it =
            std::find(clientFds_.begin(), clientFds_.end(), fd);
        if (it != clientFds_.end())
            clientFds_.erase(it);
        cv_.notify_all();
    }
    ::close(fd);
}

} // namespace svc
} // namespace pld
