// Known-bad input for snic_lint's no-mutable-file-static rule
// (tests/lint_test.cc). Never compiled.

namespace fixture {

static int counter = 0;
static const int kLimit = 16;      // const: allowed
static int Helper() { return 1; }  // function, not a variable: allowed
thread_local int tls_scratch = 0;
extern constinit thread_local int* tls_elsewhere;  // declaration: allowed

int Bump() {
  static int calls = 0;
  return ++calls + Helper() + kLimit + counter + tls_scratch;
}

}  // namespace fixture
