#include "src/net/network_fabric.h"

#include <algorithm>

#include "src/sim/check.h"

namespace rlnet {

using rlsim::Duration;
using rlsim::TimePoint;

Message Endpoint::PopFront() {
  RL_CHECK_MSG(!inbox_.empty(),
               "endpoint " << name_ << " woke with an empty inbox");
  Message m = std::move(inbox_.front());
  inbox_.pop_front();
  return m;
}

void Endpoint::Deliver(Message message) {
  inbox_.push_back(std::move(message));
  arrived_.NotifyAll();
}

Endpoint& NetworkFabric::CreateEndpoint(const std::string& name) {
  RL_CHECK_MSG(!endpoints_.contains(name), "duplicate endpoint " << name);
  // rapicheck: new-ok (private constructor; immediately owned by unique_ptr)
  auto ep = std::unique_ptr<Endpoint>(new Endpoint(sim_, name));
  Endpoint& ref = *ep;
  endpoints_.emplace(name, std::move(ep));
  return ref;
}

void NetworkFabric::Connect(const std::string& a, const std::string& b,
                            LinkParams params) {
  RL_CHECK_MSG(endpoints_.contains(a), "Connect: unknown endpoint " << a);
  RL_CHECK_MSG(endpoints_.contains(b), "Connect: unknown endpoint " << b);
  RL_CHECK_MSG(a != b, "Connect: self-link at " << a);
  RL_CHECK(params.bandwidth_mbps > 0);
  RL_CHECK(params.drop_probability >= 0 && params.drop_probability < 1.0);
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    const auto key = std::pair{from, to};
    RL_CHECK_MSG(!links_.contains(key),
                 "link " << from << "->" << to << " already exists");
    links_.emplace(key, Link{.params = params,
                             .rng = sim_.rng().Fork(),
                             .dest = endpoints_.at(to).get(),
                             .up = true,
                             .busy_until = sim_.now(),
                             .last_arrival = sim_.now(),
                             .in_flight = {},
                             .spare = {},
                             .spare_bytes = 0});
  }
}

NetworkFabric::Link* NetworkFabric::FindLink(const std::string& from,
                                             const std::string& to) {
  const auto it = links_.find(std::pair{from, to});
  return it == links_.end() ? nullptr : &it->second;
}

bool NetworkFabric::Send(const std::string& from, const std::string& to,
                         std::vector<uint8_t> payload) {
  return Send(from, to, std::move(payload), {});
}

bool NetworkFabric::Send(const std::string& from, const std::string& to,
                         std::vector<uint8_t> payload,
                         std::vector<uint8_t> ext) {
  Link* link = FindLink(from, to);
  RL_CHECK_MSG(link != nullptr, "Send on unknown link " << from << "->" << to);

  stats_.messages_sent.Add();
  stats_.bytes_sent.Add(static_cast<int64_t>(payload.size()));

  if (!link->up) {
    stats_.messages_blackholed.Add();
    Park(*link, std::move(payload));
    return false;
  }
  if (link->params.drop_probability > 0 &&
      link->rng.Chance(link->params.drop_probability)) {
    stats_.messages_dropped.Add();
    Park(*link, std::move(payload));
    return false;
  }

  const TimePoint now = sim_.now();
  const TimePoint departure = std::max(now, link->busy_until);
  const double tx_seconds = static_cast<double>(payload.size()) /
                            (link->params.bandwidth_mbps * 1e6);
  link->busy_until = departure + Duration::SecondsF(tx_seconds);
  TimePoint arrival = link->busy_until + link->params.base_latency;
  if (link->params.jitter > Duration::Zero()) {
    arrival += link->params.jitter * link->rng.NextDouble();
  }
  // In-order guarantee: jitter never reorders a link.
  arrival = std::max(arrival, link->last_arrival);
  link->last_arrival = arrival;

  // `ext` joins the Message here, after all timing/accounting above — the
  // extension is observability freight, not modelled bytes.
  link->in_flight.push_back(Message{.from = from,
                                    .to = to,
                                    .payload = std::move(payload),
                                    .ext = std::move(ext),
                                    .sent_at = now});
  sim_.ScheduleAt(arrival, [this, link] { DeliverNext(*link); });
  return true;
}

void NetworkFabric::DeliverNext(Link& link) {
  Message m = std::move(link.in_flight.front());
  link.in_flight.pop_front();
  stats_.messages_delivered.Add();
  stats_.delivery_latency.RecordDuration(sim_.now() - m.sent_at);
  link.dest->Deliver(std::move(m));
}

std::vector<uint8_t> NetworkFabric::TakeBuffer(const std::string& from,
                                               const std::string& to) {
  Link* link = FindLink(from, to);
  RL_CHECK_MSG(link != nullptr,
               "TakeBuffer on unknown link " << from << "->" << to);
  if (link->spare.empty()) {
    return {};
  }
  std::vector<uint8_t> buf = std::move(link->spare.back());
  link->spare.pop_back();
  link->spare_bytes -= buf.capacity();
  return buf;
}

void NetworkFabric::Recycle(const std::string& from, const std::string& to,
                            std::vector<uint8_t> payload) {
  if (Link* link = FindLink(from, to); link != nullptr) {
    Park(*link, std::move(payload));
  }
}

void NetworkFabric::Park(Link& link, std::vector<uint8_t> payload) {
  const size_t bytes = payload.capacity();
  if (bytes > 0 && link.spare_bytes + bytes <= kMaxSpareBytes) {
    payload.clear();
    link.spare_bytes += bytes;
    link.spare.push_back(std::move(payload));
  }
}

void NetworkFabric::SetLinkUp(const std::string& a, const std::string& b,
                              bool up) {
  Link* ab = FindLink(a, b);
  Link* ba = FindLink(b, a);
  RL_CHECK_MSG(ab != nullptr && ba != nullptr,
               "SetLinkUp on unknown link " << a << "<->" << b);
  ab->up = up;
  ba->up = up;
}

void NetworkFabric::SetLinkLoss(const std::string& a, const std::string& b,
                                double drop_probability) {
  RL_CHECK(drop_probability >= 0 && drop_probability < 1.0);
  Link* ab = FindLink(a, b);
  Link* ba = FindLink(b, a);
  RL_CHECK_MSG(ab != nullptr && ba != nullptr,
               "SetLinkLoss on unknown link " << a << "<->" << b);
  ab->params.drop_probability = drop_probability;
  ba->params.drop_probability = drop_probability;
}

void NetworkFabric::RegisterStats(rlsim::StatsRegistry& registry,
                                  const std::string& prefix) const {
  registry.RegisterCounter(prefix + "messages_sent", &stats_.messages_sent);
  registry.RegisterCounter(prefix + "messages_delivered",
                           &stats_.messages_delivered);
  registry.RegisterCounter(prefix + "messages_dropped",
                           &stats_.messages_dropped);
  registry.RegisterCounter(prefix + "messages_blackholed",
                           &stats_.messages_blackholed);
  registry.RegisterCounter(prefix + "bytes_sent", &stats_.bytes_sent);
  registry.RegisterHistogram(prefix + "delivery_latency",
                             &stats_.delivery_latency, /*as_duration=*/true);
}

}  // namespace rlnet
