package pcomb

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.golden from the current public surface")

// apiNames spells the types the root package exports by their root names, so
// that the golden file reads the same whether a type is declared here or is
// an alias of an internal one.
var apiNames = map[reflect.Type]string{
	reflect.TypeOf(System{}):                    "System",
	reflect.TypeOf(Queue{}):                     "Queue",
	reflect.TypeOf(Stack{}):                     "Stack",
	reflect.TypeOf(Heap{}):                      "Heap",
	reflect.TypeOf(Recoverable{}):               "Recoverable",
	reflect.TypeOf(Map{}):                       "Map",
	reflect.TypeOf(ServerStore{}):               "ServerStore",
	reflect.TypeOf(Options{}):                   "Options",
	reflect.TypeOf(QueueOptions{}):              "QueueOptions",
	reflect.TypeOf(StackOptions{}):              "StackOptions",
	reflect.TypeOf(HeapOptions{}):               "HeapOptions",
	reflect.TypeOf(ObjectOptions{}):             "ObjectOptions",
	reflect.TypeOf(MapOptions{}):                "MapOptions",
	reflect.TypeOf(ShardedMapOptions{}):         "ShardedMapOptions",
	reflect.TypeOf(ServerOptions{}):             "ServerOptions",
	reflect.TypeOf(Future{}):                    "Future",
	reflect.TypeOf(Resolved{}):                  "Resolved",
	reflect.TypeOf(TxnLeg{}):                    "TxnLeg",
	reflect.TypeOf(History{}):                   "History",
	reflect.TypeOf(Stats{}):                     "Stats",
	reflect.TypeOf(Request{}):                   "Request",
	reflect.TypeOf(Env{}):                       "Env",
	reflect.TypeOf(State{}):                     "State",
	reflect.TypeOf(Kind(0)):                     "Kind",
	reflect.TypeOf(CrashPolicy(0)):              "CrashPolicy",
	reflect.TypeOf(SyncMode(0)):                 "SyncMode",
	reflect.TypeOf((*HistoryLog)(nil)).Elem():   "HistoryLog",
	reflect.TypeOf((*Object)(nil)).Elem():       "Object",
	reflect.TypeOf((*SparseObject)(nil)).Elem(): "SparseObject",
}

// apiType renders t, naming root-exported types by their root names.
func apiType(t reflect.Type) string {
	if n, ok := apiNames[t]; ok {
		return n
	}
	switch t.Kind() {
	case reflect.Pointer:
		return "*" + apiType(t.Elem())
	case reflect.Slice:
		return "[]" + apiType(t.Elem())
	case reflect.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), apiType(t.Elem()))
	case reflect.Map:
		return "map[" + apiType(t.Key()) + "]" + apiType(t.Elem())
	case reflect.Func:
		return "func" + apiSig(t, 0)
	}
	return t.String()
}

// apiSig renders a func type's parameters from the first'th on, and its
// results.
func apiSig(t reflect.Type, first int) string {
	var in []string
	for i := first; i < t.NumIn(); i++ {
		if t.IsVariadic() && i == t.NumIn()-1 {
			in = append(in, "..."+apiType(t.In(i).Elem()))
		} else {
			in = append(in, apiType(t.In(i)))
		}
	}
	s := "(" + strings.Join(in, ", ") + ")"
	var out []string
	for i := 0; i < t.NumOut(); i++ {
		out = append(out, apiType(t.Out(i)))
	}
	switch len(out) {
	case 0:
	case 1:
		s += " " + out[0]
	default:
		s += " (" + strings.Join(out, ", ") + ")"
	}
	return s
}

// TestPublicAPI pins the root package's public surface: the method set of
// every exported structure type and the fields of every option struct, one
// line each, against testdata/api.golden. A change to the surface shows up as
// a diff of that file; regenerate it with `go test -run TestPublicAPI
// -update .`.
func TestPublicAPI(t *testing.T) {
	var lines []string
	for _, v := range []any{
		(*System)(nil), (*Queue)(nil), (*Stack)(nil), (*Heap)(nil),
		(*Recoverable)(nil), (*Map)(nil), (*ServerStore)(nil),
	} {
		pt := reflect.TypeOf(v)
		name := apiType(pt.Elem())
		for i := 0; i < pt.NumMethod(); i++ {
			m := pt.Method(i)
			lines = append(lines, fmt.Sprintf("*%s.%s%s", name, m.Name, apiSig(m.Type, 1)))
		}
	}
	for _, v := range []any{
		Options{}, QueueOptions{}, StackOptions{}, HeapOptions{}, ObjectOptions{},
		MapOptions{}, ShardedMapOptions{}, ServerOptions{},
	} {
		st := reflect.TypeOf(v)
		for i := 0; i < st.NumField(); i++ {
			if f := st.Field(i); f.IsExported() {
				lines = append(lines, fmt.Sprintf("%s.%s %s", apiType(st), f.Name, apiType(f.Type)))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	const golden = "testdata/api.golden"
	if *updateAPI {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("public surface differs from %s (regenerate with -update and review the diff):\n%s",
			golden, apiDiff(string(want), got))
	}
}

// apiDiff lists the lines only in want (-) and only in got (+).
func apiDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
