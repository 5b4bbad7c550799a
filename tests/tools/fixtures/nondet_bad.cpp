// Golden fixture: raw nondeterminism sources in library code.
// Analyzed as if at src/core/nondet_bad.cpp.
namespace std {
struct random_device {
  unsigned operator()();
};
namespace chrono {
struct steady_clock {
  static long now();
};
}  // namespace chrono
}  // namespace std
extern "C" int rand();
extern "C" long time(long*);

unsigned seed_from_entropy() {
  std::random_device rd;  // line 17: raw entropy source
  return rd();
}

int jitter() {
  return rand();  // line 22: CRT randomness
}

long stamp() {
  long wall = time(nullptr);                     // line 26: wall clock
  return wall + std::chrono::steady_clock::now();  // line 27: clock read
}
