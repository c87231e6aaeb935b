// Fixture: L1 — log text built outside Logger::log (never compiled).
#include <string>

void emit(Logger& logger, Prefix prefix, int n, Session& s) {
  logger.log(now, kInfo, "bgp", "best_lost", prefix.to_string());
  logger.log(now, kInfo, "ctrl." + name, "crash");
  logger.log(now, kInfo, "bgp", "damped", std::to_string(n));
  s.log("open_rx", "peer " + peer_as);
  char buf[16];
  logger.log(now, kInfo, "x", "y", std::snprintf(buf, 16, "%d", n));
}
