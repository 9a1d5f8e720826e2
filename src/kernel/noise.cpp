#include "kernel/noise.hpp"

#include <algorithm>
#include <cmath>

#include "sim/contracts.hpp"

namespace mkos::kernel {

namespace {

/// Bounded proxy scale for the second moment of an uncapped Pareto with
/// alpha <= 2 (divergent m2): pretend a cap at 100x the scale, mirroring
/// the old expected_fraction() fallback. Only reached by models no preset
/// uses; every heavy-tailed preset component carries a real cap.
constexpr double kUncappedParetoProxy = 100.0;

/// Truncated moments of Pareto(xm, alpha) capped at c (requires c > xm):
///   E[min(X,c)^k] = integral_xm^c x^k f(x) dx + c^k (xm/c)^alpha.
ComponentMoments pareto_capped_moments(double xm, double alpha, double c) {
  ComponentMoments m;
  const double tail = std::pow(xm / c, alpha);  // P(X > c)
  if (alpha == 1.0) {
    m.m1_ns = xm * (1.0 + std::log(c / xm));
  } else {
    m.m1_ns = alpha / (alpha - 1.0) * xm * (1.0 - std::pow(xm / c, alpha - 1.0)) +
              c * tail;
  }
  if (alpha == 2.0) {
    m.m2_ns2 = 2.0 * xm * xm * std::log(c / xm) + c * c * tail;
  } else {
    m.m2_ns2 = alpha / (2.0 - alpha) * xm * xm * (std::pow(c / xm, 2.0 - alpha) - 1.0) +
               c * c * tail;
  }
  return m;
}

}  // namespace

ComponentMoments component_moments(const NoiseComponent& c) {
  ComponentMoments m;
  const double cap = static_cast<double>(c.cap.ns());
  switch (c.dist) {
    case NoiseComponent::Dist::kFixed: {
      const double d = static_cast<double>(c.duration.ns());
      const double v = cap > 0.0 ? std::min(d, cap) : d;
      m.m1_ns = v;
      m.m2_ns2 = v * v;
      break;
    }
    case NoiseComponent::Dist::kExponential: {
      const double mu = static_cast<double>(c.duration.ns());
      if (cap <= 0.0) {
        m.m1_ns = mu;
        m.m2_ns2 = 2.0 * mu * mu;
      } else {
        // E[min(X,c)] = mu (1 - e^{-c/mu});
        // E[min(X,c)^2] = 2 mu^2 - e^{-c/mu} (2 c mu + 2 mu^2).
        const double e = std::exp(-cap / mu);
        m.m1_ns = mu * (1.0 - e);
        m.m2_ns2 = 2.0 * mu * mu - e * (2.0 * cap * mu + 2.0 * mu * mu);
      }
      break;
    }
    case NoiseComponent::Dist::kPareto: {
      const double xm = static_cast<double>(c.duration.ns());
      const double alpha = c.pareto_alpha;
      if (cap > 0.0 && cap <= xm) {
        // Cap at or below the scale: every draw clips to the cap.
        m.m1_ns = cap;
        m.m2_ns2 = cap * cap;
      } else if (cap > 0.0) {
        m = pareto_capped_moments(xm, alpha, cap);
      } else if (alpha > 2.0) {
        m.m1_ns = alpha * xm / (alpha - 1.0);
        m.m2_ns2 = alpha * xm * xm / (alpha - 2.0);
      } else {
        // Divergent raw moments: bounded proxy (see kUncappedParetoProxy).
        m = pareto_capped_moments(xm, std::max(alpha, 1e-6),
                                  xm * kUncappedParetoProxy);
      }
      break;
    }
    default:
      break;
  }
  return m;
}

double sample_component_max_ns(const NoiseComponent& c, std::uint64_t n,
                               sim::Rng& rng) {
  MKOS_EXPECTS(n >= 1);
  double u = rng.next_double();
  if (u <= 0.0) u = 0x1.0p-53;
  if (u >= 1.0) u = 1.0 - 0x1.0p-53;
  // Max of n iid draws with CDF F is F^{-1}(U^{1/n}). With p = U^{1/n},
  // 1 - p = -expm1(ln(U)/n) keeps precision when p -> 1 (large n).
  const double one_minus_p = -std::expm1(std::log(u) / static_cast<double>(n));
  double d;
  switch (c.dist) {
    case NoiseComponent::Dist::kFixed:
      d = static_cast<double>(c.duration.ns());
      break;
    case NoiseComponent::Dist::kExponential:
      d = -static_cast<double>(c.duration.ns()) * std::log(one_minus_p);
      break;
    case NoiseComponent::Dist::kPareto:
      d = static_cast<double>(c.duration.ns()) *
          std::pow(one_minus_p, -1.0 / c.pareto_alpha);
      break;
    default:
      d = 0.0;
  }
  if (c.cap.ns() > 0) d = std::min(d, static_cast<double>(c.cap.ns()));
  return d;
}

NoiseModel::NoiseModel(std::vector<NoiseComponent> components)
    : components_(std::move(components)) {
  moments_.reserve(components_.size());
  for (const auto& c : components_) moments_.push_back(component_moments(c));
}

NoiseModel& NoiseModel::add(NoiseComponent c) {
  moments_.push_back(component_moments(c));
  components_.push_back(std::move(c));
  return *this;
}

double NoiseModel::expected_fraction() const {
  double f = 0.0;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    f += components_[i].rate_hz * moments_[i].m1_ns * 1e-9;
  }
  return f;
}

NoiseModel noise_lwk() {
  // IKC interrupt handling and the odd management poke; sub-microsecond
  // detours at a few hertz: ~0.0002% stolen.
  return NoiseModel{{
      NoiseComponent{"ikc-irq", 2.0, sim::TimeNs{800}, NoiseComponent::Dist::kExponential,
                     1.5, sim::TimeNs{0}},
  }};
}

NoiseModel noise_lwk_mos() {
  NoiseModel m = noise_lwk();
  // Rare stray Linux task reaching an LWK core before eviction.
  m.add(NoiseComponent{"stray-task", 0.02, sim::microseconds(8),
                       NoiseComponent::Dist::kExponential, 1.5, sim::TimeNs{0}});
  return m;
}

NoiseModel noise_linux_nohz_full() {
  return NoiseModel{{
      // Residual per-core housekeeping that nohz_full does not remove:
      // deferred RCU, vmstat updates, clocksource watchdog.
      NoiseComponent{"housekeeping", 25.0, sim::microseconds(4),
                     NoiseComponent::Dist::kExponential, 1.5, sim::TimeNs{0}},
      // kworker items (writeback, timers migrated late).
      NoiseComponent{"kworker", 1.2, sim::microseconds(30),
                     NoiseComponent::Dist::kExponential, 1.5, sim::TimeNs{0}},
      // Daemon tail: cgroup accounting walks, page-cache flushes. Bounded —
      // these detours dilate long compute phases by a few percent at scale.
      NoiseComponent{"daemon-tail", 0.00005, sim::microseconds(700),
                     NoiseComponent::Dist::kPareto, 1.5, sim::milliseconds(2.5)},
  }};
}

NoiseModel noise_linux_collective_tail() {
  // Interference that couples to blocking collectives: a rank descheduled
  // mid-allreduce (IRQ storms, kswapd bursts, MPI progression starvation)
  // stalls the whole dependency tree, and the lengthened collective is
  // exposed to the *next* such event — the runaway that makes Linux
  // collapse at extreme concurrency (Fig. 5b) while long compute windows
  // barely notice. Modeled separately from the per-core compute noise and
  // consumed only by the collective cost model.
  return NoiseModel{{
      NoiseComponent{"collective-stall", 0.004, sim::milliseconds(5.5),
                     NoiseComponent::Dist::kExponential, 1.5, sim::milliseconds(22)},
  }};
}

NoiseModel noise_linux_co_tenant() {
  NoiseModel m = noise_linux_nohz_full();
  // The tenant's threads and page-cache traffic periodically preempt the
  // application ("achieving performance isolation with lightweight
  // co-kernels" is the counter-design).
  m.add(NoiseComponent{"tenant-preempt", 12.0, sim::microseconds(180),
                       NoiseComponent::Dist::kExponential, 1.5, sim::TimeNs{0}});
  m.add(NoiseComponent{"tenant-burst", 0.5, sim::milliseconds(1.5),
                       NoiseComponent::Dist::kPareto, 1.4, sim::milliseconds(20)});
  return m;
}

NoiseModel noise_linux_collective_tail_co_tenant() {
  NoiseModel m = noise_linux_collective_tail();
  m.add(NoiseComponent{"tenant-stall", 0.02, sim::milliseconds(5.0),
                       NoiseComponent::Dist::kExponential, 1.5, sim::milliseconds(22)});
  return m;
}

NoiseModel noise_daemon_storm() {
  // ~2000 preemptions/s of ~150us each: expected_fraction() ~= 0.3, i.e. a
  // storm costs a fully exposed core roughly a third of its cycles.
  return NoiseModel{{
      NoiseComponent{"storm-preempt", 2000.0, sim::microseconds(150),
                     NoiseComponent::Dist::kExponential, 1.5, sim::TimeNs{0}},
  }};
}

NoiseModel noise_linux_service_core() {
  NoiseModel m = noise_linux_nohz_full();
  m.add(NoiseComponent{"services", 40.0, sim::microseconds(120),
                       NoiseComponent::Dist::kExponential, 1.5, sim::TimeNs{0}});
  m.add(NoiseComponent{"service-tail", 0.8, sim::milliseconds(2),
                       NoiseComponent::Dist::kPareto, 1.3, sim::milliseconds(40)});
  return m;
}

}  // namespace mkos::kernel
