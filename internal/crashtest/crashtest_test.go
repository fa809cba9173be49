package crashtest

import "testing"

const (
	fuzzThreads = 4
	fuzzOps     = 300
	fuzzRounds  = 3
)

// specDriver adapts a Spec constructor to the engines' driver factory.
func specDriver(n int, mk func() *Spec) func(seed int64) Driver {
	return func(seed int64) Driver { return NewDriver(mk(), n, seed) }
}

// matrixTarget looks a target of the matrix for cfg's campaigns up by name.
func matrixTarget(t testing.TB, cfg Config, name string) Target {
	t.Helper()
	for _, tg := range MatrixTargets(cfg) {
		if tg.Name == name {
			return tg
		}
	}
	t.Fatalf("matrix has no target %q", name)
	return Target{}
}

// fuzzTarget runs seeded fuzz campaigns of the suite's standard size, without
// the durable-linearizability check: rounds of this size are judged by the
// always-on audit alone.
func fuzzTarget(t *testing.T, seeds int64, name string) {
	t.Helper()
	cfg := Config{Threads: fuzzThreads, Ops: fuzzOps, Rounds: fuzzRounds}
	tg := matrixTarget(t, cfg, name)
	for cfg.Seed = 1; cfg.Seed <= seeds; cfg.Seed++ {
		if _, fail := Fuzz(tg.Mk, cfg); fail != nil {
			t.Fatalf("seed %d: %v", cfg.Seed, fail.ErrOrNil())
		}
	}
}

func TestFuzzCounterPB(t *testing.T)         { fuzzTarget(t, 5, "counter/PBcomb") }
func TestFuzzCounterPWF(t *testing.T)        { fuzzTarget(t, 5, "counter/PWFcomb") }
func TestFuzzQueuePB(t *testing.T)           { fuzzTarget(t, 4, "queue/PBqueue") }
func TestFuzzQueuePWF(t *testing.T)          { fuzzTarget(t, 4, "queue/PWFqueue") }
func TestFuzzStackPB(t *testing.T)           { fuzzTarget(t, 4, "stack/PBstack") }
func TestFuzzStackPWF(t *testing.T)          { fuzzTarget(t, 4, "stack/PWFstack") }
func TestFuzzHeapPB(t *testing.T)            { fuzzTarget(t, 4, "heap/PBheap") }
func TestFuzzHeapPWF(t *testing.T)           { fuzzTarget(t, 4, "heap/PWFheap") }
func TestFuzzMapPB(t *testing.T)             { fuzzTarget(t, 4, "map/PBmap") }
func TestFuzzMapPWF(t *testing.T)            { fuzzTarget(t, 4, "map/PWFmap") }
func TestFuzzRegisterSparsePB(t *testing.T)  { fuzzTarget(t, 4, "register/PBsparse") }
func TestFuzzRegisterSparsePWF(t *testing.T) { fuzzTarget(t, 4, "register/PWFsparse") }
func TestFuzzBatchRegisterPB(t *testing.T)   { fuzzTarget(t, 5, "register/PBbatch") }
func TestFuzzBatchRegisterPWF(t *testing.T)  { fuzzTarget(t, 5, "register/PWFbatch") }

func TestReportString(t *testing.T) {
	cfg := Config{Threads: 2, Ops: 50, Rounds: 1, Seed: 99}
	rep, fail := Fuzz(matrixTarget(t, cfg, "counter/PBcomb").Mk, cfg)
	if fail != nil {
		t.Fatal(fail.ErrOrNil())
	}
	if rep.String() == "" || rep.Crashes != 1 {
		t.Fatalf("bad report %+v", rep)
	}
}
