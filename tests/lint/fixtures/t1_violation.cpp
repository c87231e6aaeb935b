// Fixture: T1 — threads and thread_local outside trial.* (never compiled).
#include <atomic>
#include <thread>

void spin() {
  std::atomic<int> hits{0};
  std::thread worker{[&] { hits.fetch_add(1); }};
  worker.detach();
  thread_local int spins = 0;
  ++spins;
}
