#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <string>

namespace contbench {

HostClock::time_point HostClock::now() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return time_point(duration(static_cast<rep>(ts.tv_sec) * 1'000'000'000 +
                             static_cast<rep>(ts.tv_nsec)));
}

double HostSecondsSince(HostClock::time_point start) {
  return std::chrono::duration<double>(HostClock::now() - start).count();
}

std::string_view SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kSimTick: return "sim.tick";
    case SpanName::kLaunch: return "usecases.launch";
    case SpanName::kKbPut: return "kb.put";
    case SpanName::kKbGet: return "kb.get";
    case SpanName::kNetCall: return "net.call";
    case SpanName::kAdmit: return "bench.admit";
    case SpanName::kAuth: return "mirto.auth";
    case SpanName::kUnpack: return "tosca.unpack";
    case SpanName::kDeploy: return "mirto.deploy";
    case SpanName::kUndeploy: return "mirto.undeploy";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(HostClock::now()) {}

std::int32_t Tracer::Begin(SpanName name, std::uint64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      HostClock::now() - origin_)
                      .count();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(HostClock::now() -
                                                           origin_)
          .count();
  // Spans close in LIFO order; tolerate a mismatch by unwinding to `index`.
  while (!open_.empty()) {
    const std::int32_t top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::vector<Tracer::NameStats> Tracer::Summarize() const {
  std::vector<NameStats> out(static_cast<std::size_t>(SpanName::kCount));
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    NameStats& stats = out[static_cast<std::size_t>(span.name)];
    const std::int64_t dur_ns = span.end_ns - span.start_ns;
    stats.total_s += static_cast<double>(dur_ns) * 1e-9;
    stats.self_s += static_cast<double>(dur_ns - child_ns[i]) * 1e-9;
    stats.durations_us.Add(static_cast<double>(dur_ns) * 1e-3);
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\top\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%llu\t%s\t%lld\t%lld\n", i, s.parent,
                 static_cast<unsigned long long>(s.op),
                 std::string(SpanNameString(s.name)).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void Digest::Add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 1099511628211ULL;
  }
}

void Digest::Add(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
  Add(static_cast<std::uint64_t>(s.size()));
}

void Digest::AddDouble(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

std::vector<double> SortedSamples(const util::Samples& samples) {
  std::vector<double> out;
  const std::size_t n = samples.count();
  out.reserve(n);
  if (n == 1) out.push_back(samples.Quantile(0.0));
  if (n < 2) return out;
  const auto last = static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(samples.Quantile(static_cast<double>(i) / last));
  }
  return out;
}

double SpeedProbeSeconds() {
  double best = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    const HostClock::time_point t0 = HostClock::now();
    std::uint64_t x = 88172645463325252ULL;
    std::vector<std::uint64_t> v(8192);
    for (std::uint64_t& e : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = x;
    }
    std::sort(v.begin(), v.end());
    std::map<std::uint64_t, std::uint64_t> m;
    for (std::size_t i = 0; i < v.size(); i += 4) m[v[i] % 50021] += i;
    Digest d;
    for (std::size_t i = 0; i < v.size(); i += 8) {
      const auto it = m.find(v[(i * 7919) % v.size()] % 50021);
      d.Add(std::to_string(it == m.end() ? v[i] : it->second));
    }
    // The digest feeds the result so the kernel cannot be optimized away.
    const double dt =
        HostSecondsSince(t0) + static_cast<double>(d.value() & 1U) * 1e-15;
    if (rep == 0 || dt < best) best = dt;
  }
  return best;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

void RunTicks(sim::Engine& engine, sim::SimTime end, sim::SimTime tick,
              Tracer& tracer, RoundResult& round,
              const std::function<void()>& at_boundary) {
  while (engine.Now() < end) {
    const auto index = static_cast<std::uint32_t>(round.tick_host_ms.size());
    if (index % kProbeEvery == 0) round.probes.emplace_back(index, SpeedProbeSeconds());
    const sim::SimTime next = std::min(end, engine.Now() + tick);
    const HostClock::time_point t0 = HostClock::now();
    {
      ScopedSpan span(tracer, SpanName::kSimTick);
      engine.RunUntil(next);
    }
    round.tick_host_ms.push_back(HostSecondsSince(t0) * 1e3);
    if (at_boundary) at_boundary();
  }
}

}  // namespace contbench
