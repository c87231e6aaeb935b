// Fixture: L1 — pieces handed to Logger::log (never compiled).
#include <cmath>
#include <string>

// Building text outside a log call is not L1's business.
std::string label(int n) { return "n=" + std::to_string(n); }

double decay(double x) { return std::log(x + 1.0); }

void emit(Logger& logger, Prefix prefix, int n, Session& s) {
  logger.log(now, kInfo, "bgp", "best_lost", prefix);
  logger.log(now, kInfo, component, "route_damped", prefix, " penalty ", n);
  s.log("open_rx", "peer ", peer_as);
  logger.log(now, kInfo, "x", "y", label(n + 1));
  // lint: log-text-ok(fixture: a reasoned waiver suppresses the finding)
  logger.log(now, kInfo, "x", "y", "legacy " + label(n));
}
