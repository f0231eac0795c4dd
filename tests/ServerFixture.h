//===- tests/ServerFixture.h - A live becd on an ephemeral port -----------===//
//
// The TCP fixture of ServeTest and NetTest: net::EventServer on an
// ephemeral loopback port, run on its own thread until scope exit. By
// default it is becd wired as `bec serve` wires it.
//
//===----------------------------------------------------------------------===//

#ifndef BEC_TESTS_SERVERFIXTURE_H
#define BEC_TESTS_SERVERFIXTURE_H

#include "net/EventLoop.h"
#include "serve/Client.h"
#include "serve/Service.h"
#include "serve/Socket.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>

namespace bec {
namespace test {

struct ServerFixture {
  serve::Service Svc;
  net::EventServer Srv;
  std::thread Runner;

  /// becd with \p Workers request workers.
  explicit ServerFixture(unsigned Workers = 4)
      : Srv(
            [this](std::string_view Line, const net::FrameSink &Sink) {
              return Svc.handleFrameStreaming(Line, Sink);
            },
            Svc.handshakeFrame(), {.Port = 0, .Workers = Workers}) {
    Srv.setDrainCheck([this] { return Svc.isShuttingDown(); });
    Srv.setAcceptCallback([this] { Svc.noteConnection(); });
    startAndRun();
  }

  /// A custom handler (no Service behind it).
  ServerFixture(net::FrameHandler Handler, unsigned Workers,
                size_t QueueDepth = 256)
      : Srv(std::move(Handler), serve::makeHandshakeFrame(),
            {.Port = 0, .Workers = Workers, .QueueDepth = QueueDepth}) {
    startAndRun();
  }

  ~ServerFixture() {
    Srv.requestStop();
    if (Runner.joinable())
      Runner.join();
  }

  std::string remoteFlag() const {
    return "127.0.0.1:" + std::to_string(Srv.port());
  }

  serve::Client connect() {
    std::string Err;
    std::optional<serve::Client> C =
        serve::Client::connect("127.0.0.1", Srv.port(), Err);
    if (!C)
      throw std::runtime_error("connect failed: " + Err);
    return std::move(*C);
  }

  /// A raw connected socket past the handshake frame.
  serve::Socket connectRaw() {
    std::string Err;
    std::optional<serve::Socket> S =
        serve::connectTo("127.0.0.1", Srv.port(), Err);
    if (!S)
      throw std::runtime_error("connect failed: " + Err);
    std::string Line;
    if (S->recvLine(Line, serve::MaxFrameBytes, Err) !=
        serve::Socket::RecvStatus::Line)
      throw std::runtime_error("no handshake: " + Err);
    return std::move(*S);
  }

private:
  void startAndRun() {
    std::string Err;
    if (!Srv.start(Err))
      ADD_FAILURE() << "server start failed: " << Err;
    Runner = std::thread([this] { Srv.run(); });
  }
};

} // namespace test
} // namespace bec

#endif // BEC_TESTS_SERVERFIXTURE_H
