// Serve path: one nonblocking TCP connection per stream (one stream per
// connection is the protocol's rule) into an in-process serve::Server.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <deque>

#include "poller.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "workload.hpp"

namespace swc::bench {
namespace {

// Offset of the stream id in the wire header (see serve/protocol.hpp).
constexpr std::size_t kStreamIdOffset = 8;

void patch_stream_id(std::vector<std::uint8_t>& wire, std::uint32_t id) {
  for (std::size_t i = 0; i < 4; ++i) {
    wire[kStreamIdOffset + i] = static_cast<std::uint8_t>(id >> (8 * i));
  }
}

class ServeTransport final : public Transport {
 public:
  ServeTransport(const Workload& w, std::vector<StreamInputs>& inputs,
                 std::vector<FrameRecord>& records, Tracer& tracer, DoneFn done)
      : inputs_(inputs),
        records_(records),
        tracer_(tracer),
        done_(std::move(done)),
        server_([] {
          serve::ServerOptions options;
          options.workers = kWorkers;
          return options;
        }()),
        conns_(w.streams.size()) {
    server_.start();
    for (std::size_t s = 0; s < conns_.size(); ++s) open_stream(w, s);
  }

  void issue(std::size_t record) override {
    FrameRecord& r = records_[record];
    r.start_ns = now_ns();
    Conn& c = conns_[r.stream];
    c.sendq.push_back(record);
    if (c.sendq.size() == 1) write_some(r.stream);
  }

  void poll() override {
    poller_.poll([this](std::uint64_t key, std::uint32_t events) {
      const auto s = static_cast<std::size_t>(key);
      if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) read_some(s);
      if ((events & EPOLLOUT) != 0) write_some(s);
    });
  }

  ServerCounters counters() override {
    const auto& ids = serve::ServeMetricIds::get();
    const telemetry::Snapshot snap = server_.serve_metrics();
    ServerCounters c;
    c.completed = snap.sum(ids.frames_completed);
    c.rejected_busy = snap.sum(ids.frames_rejected_busy);
    c.read_pauses = snap.sum(ids.read_pauses);
    c.parked_frames_max = snap.max(ids.parked_frames);
    c.runtime = server_.engine().stats();
    return c;
  }

 private:
  struct Conn {
    UniqueFd sock;
    std::deque<std::size_t> sendq;  // records waiting for the socket, head in progress
    std::size_t offset = 0;         // bytes of the head already written
    bool want_write = false;
    serve::FrameParser parser;
  };

  void open_stream(const Workload& w, std::size_t s) {
    Conn& c = conns_[s];
    c.sock.reset(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    const int fd = c.sock.get();
    if (fd < 0) fail_errno("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      fail_errno("connect");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    serve::HelloPayload hello;
    hello.qos = serve::QosTier::Bulk;
    hello.width = static_cast<std::uint32_t>(w.size);
    hello.height = static_cast<std::uint32_t>(w.size);
    hello.window = static_cast<std::uint32_t>(w.window);
    hello.threshold = w.streams[s].threshold;
    hello.backend = w.streams[s].backend;
    hello.name = w.name + "-" + std::to_string(s);
    const auto bytes =
        serve::encode_message(serve::MsgType::Hello, 0, 0, serve::encode_payload(hello));
    for (std::size_t off = 0; off < bytes.size();) {
      const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0) fail_errno("send HELLO");
      off += static_cast<std::size_t>(n);
    }
    // The socket is still blocking: read until the one reply is parsed.
    std::vector<serve::Message> replies;
    std::uint8_t buf[4096];
    while (replies.empty()) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0) fail_errno("recv HELLO_ACK");
      if (n == 0 || !c.parser.feed({buf, static_cast<std::size_t>(n)}, [&](serve::Message&& m) {
            replies.push_back(std::move(m));
          })) {
        throw std::runtime_error("no HELLO_ACK on stream " + std::to_string(s));
      }
    }
    const serve::Message& reply = replies.front();
    if (reply.header.type != serve::MsgType::HelloAck) {
      const auto err = serve::decode_error(reply.payload);
      throw std::runtime_error("HELLO refused: " + (err ? err->message : std::string("?")));
    }
    for (auto& wire : inputs_[s].wires) patch_stream_id(wire, reply.header.stream_id);
    if (::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) < 0) fail_errno("fcntl");
    poller_.add(fd, EPOLLIN, s);
  }

  void set_write_interest(std::size_t s, bool on) {
    Conn& c = conns_[s];
    if (c.want_write == on) return;
    c.want_write = on;
    poller_.modify(c.sock.get(), EPOLLIN | (on ? EPOLLOUT : 0u), s);
  }

  void write_some(std::size_t s) {
    Conn& c = conns_[s];
    while (!c.sendq.empty()) {
      const std::size_t record = c.sendq.front();
      auto& wire = inputs_[s].wires[records_[record].frame];
      // A frame's buffer is reused every kFramesPerStream sends; it is
      // patched only once it reaches the head, after its previous send ended.
      if (c.offset == 0) serve::patch_seq(wire, record_seq(record));
      ssize_t n = 0;
      {
        ScopedSpan span(tracer_, "client.send", static_cast<std::uint32_t>(s), record_seq(record));
        n = ::send(c.sock.get(), wire.data() + c.offset, wire.size() - c.offset, MSG_NOSIGNAL);
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          set_write_interest(s, true);
          return;
        }
        fail_errno("send");
      }
      c.offset += static_cast<std::size_t>(n);
      if (c.offset == wire.size()) {
        records_[record].handoff_ns = now_ns();
        c.sendq.pop_front();
        c.offset = 0;
      }
    }
    set_write_interest(s, false);
  }

  void read_some(std::size_t s) {
    Conn& c = conns_[s];
    for (;;) {
      const ssize_t n = ::recv(c.sock.get(), read_buf_, sizeof(read_buf_), 0);
      if (n == 0) throw std::runtime_error("server closed stream " + std::to_string(s));
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        fail_errno("recv");
      }
      bool ok = true;
      {
        ScopedSpan span(tracer_, "client.parse", static_cast<std::uint32_t>(s), 0);
        ok = c.parser.feed({read_buf_, static_cast<std::size_t>(n)},
                           [this](serve::Message&& m) { parsed_.push_back(std::move(m)); });
      }
      if (!ok) {
        throw std::runtime_error(std::string("unparseable reply: ") +
                                 serve::to_string(c.parser.error()));
      }
      for (auto& msg : parsed_) on_message(s, msg);
      parsed_.clear();
    }
  }

  void on_message(std::size_t s, const serve::Message& msg) {
    if (msg.header.type == serve::MsgType::Error) {
      const auto err = serve::decode_error(msg.payload);
      throw std::runtime_error("server ERROR on stream " + std::to_string(s) + ": " +
                               (err ? err->message : std::string("?")));
    }
    const auto done = serve::decode_frame_done(msg.payload);
    const std::uint64_t seq = msg.header.seq;
    if (msg.header.type != serve::MsgType::FrameDone || !done || seq == 0 ||
        seq > records_.size() || records_[seq - 1].stream != s ||
        records_[seq - 1].status != Status::Pending) {
      throw std::runtime_error("unexpected reply on stream " + std::to_string(s));
    }
    const std::size_t record = seq - 1;
    FrameRecord& r = records_[record];
    r.done_ns = now_ns();
    r.server_ns = done->latency_ns;
    r.payload_bits = done->payload_bits;
    r.status = done->status == serve::FrameStatus::Ok             ? Status::Ok
               : done->status == serve::FrameStatus::RejectedBusy ? Status::Rejected
                                                                  : Status::Failed;
    done_(record);
  }

  std::vector<StreamInputs>& inputs_;
  std::vector<FrameRecord>& records_;
  Tracer& tracer_;
  DoneFn done_;
  Poller poller_;
  serve::Server server_;
  // Declared after server_: the client sockets close first, so the server
  // sees hang-ups, not a shutdown with live peers.
  std::vector<Conn> conns_;
  std::vector<serve::Message> parsed_;
  std::uint8_t read_buf_[64 * 1024] = {};
};

}  // namespace

std::unique_ptr<Transport> make_serve_transport(const Workload& w,
                                                std::vector<StreamInputs>& inputs,
                                                std::vector<FrameRecord>& records,
                                                Tracer& tracer, Transport::DoneFn done) {
  return std::make_unique<ServeTransport>(w, inputs, records, tracer, std::move(done));
}

}  // namespace swc::bench
