#include "h2priv/tls/session.hpp"

#include <stdexcept>

namespace h2priv::tls {

namespace {
// Direction domains for the keystream: client-to-server = 0, reverse = 1.
constexpr std::uint8_t kC2S = 0;
constexpr std::uint8_t kS2C = 1;
}  // namespace

Session::Session(Role role, std::uint64_t session_secret, tcp::Connection& transport)
    : role_(role),
      tcp_(transport),
      seal_(session_secret, role == Role::kClient ? kC2S : kS2C),
      open_(session_secret, role == Role::kClient ? kS2C : kC2S) {
  tcp_.on_established = [this] { on_transport_established(); };
  tcp_.on_data = [this](util::BytesView bytes) { on_transport_data(bytes); };
  tcp_.on_writable = [this] {
    if (on_writable) on_writable();
  };
  tcp_.on_closed = [this](tcp::CloseReason reason) {
    if (on_closed) on_closed(reason);
  };
  hs_state_ = HandshakeState::kWaitTransport;
}

void Session::on_transport_established() {
  if (role_ == Role::kClient) {
    send_handshake_flight(kClientHelloLen);
    hs_state_ = HandshakeState::kClientAwaitServerFlight;
    hs_bytes_pending_ = kServerFlightLen;
  } else {
    hs_state_ = HandshakeState::kServerAwaitClientHello;
    hs_bytes_pending_ = kClientHelloLen;
  }
}

void Session::send_handshake_flight(std::size_t len) {
  const util::Bytes flight = util::patterned_bytes(len, 0x48534b00u);  // 'HSK'
  tcp_.send(seal_.seal_shared(ContentType::kHandshake, flight));
}

void Session::on_transport_data(util::BytesView bytes) {
  while (const std::optional<OpenContext::Record> rec = open_.open_next(bytes)) {
    switch (rec->type) {
      case ContentType::kHandshake:
        handle_handshake_bytes(rec->plaintext);
        break;
      case ContentType::kApplicationData:
        app_bytes_received_ += rec->plaintext.size();
        if (on_app_data) on_app_data(rec->plaintext);
        break;
      default:
        break;  // alerts / CCS are decorative in this model
    }
  }
}

void Session::handle_handshake_bytes(util::BytesView bytes) {
  std::size_t n = bytes.size();
  while (n > 0 && hs_state_ != HandshakeState::kEstablished) {
    const std::size_t used = std::min(n, hs_bytes_pending_);
    hs_bytes_pending_ -= used;
    n -= used;
    if (hs_bytes_pending_ != 0) return;
    switch (hs_state_) {
      case HandshakeState::kServerAwaitClientHello:
        send_handshake_flight(kServerFlightLen);
        hs_state_ = HandshakeState::kServerAwaitClientFinished;
        hs_bytes_pending_ = kClientFinishedLen;
        break;
      case HandshakeState::kClientAwaitServerFlight:
        send_handshake_flight(kClientFinishedLen);
        hs_state_ = HandshakeState::kClientAwaitServerFinished;
        hs_bytes_pending_ = kServerFinishedLen;
        break;
      case HandshakeState::kServerAwaitClientFinished:
        send_handshake_flight(kServerFinishedLen);
        become_established();
        break;
      case HandshakeState::kClientAwaitServerFinished:
        become_established();
        break;
      default:
        throw std::logic_error("tls::Session: handshake bytes in unexpected state");
    }
  }
}

void Session::become_established() {
  hs_state_ = HandshakeState::kEstablished;
  established_ = true;
  if (on_established) on_established();
}

WireRange Session::send_app(const util::Pieces& plaintext) {
  if (!established_) throw std::logic_error("tls::Session::send_app before handshake");
  const std::uint64_t begin = tcp_.bytes_enqueued();
  tcp_.send(seal_.seal_shared(ContentType::kApplicationData, plaintext));
  app_bytes_sent_ += plaintext.size();
  return WireRange{begin, tcp_.bytes_enqueued()};
}

std::int64_t Session::app_send_capacity() const noexcept {
  const std::int64_t raw = tcp_.send_capacity();
  // Worst-case overhead: one header+tag per kMaxPlaintext chunk, plus one.
  const std::int64_t per_record = static_cast<std::int64_t>(kHeaderBytes + kAeadOverhead);
  const std::int64_t chunks = raw / static_cast<std::int64_t>(kMaxPlaintext) + 2;
  return std::max<std::int64_t>(0, raw - chunks * per_record);
}

}  // namespace h2priv::tls
