package plan_test

import (
	"regexp"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/tpcw"
)

// TestNodeGoroutinesCarryCPULabels: every node goroutine of a running plan
// carries the pprof label node="<ID>: <Name>", the prefix of its Describe
// line, so a CPU profile splits by node (go tool pprof -tags).
func TestNodeGoroutinesCarryCPULabels(t *testing.T) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := tpcw.CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	p := plan.New(db)
	for _, q := range tpcw.StatementSQL() {
		if _, err := p.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	p.Start()
	defer p.Stop()
	// The profile must show each node's goroutine (Start launches them
	// asynchronously) with its Describe line's prefix as label; the sink
	// is node 0.
	lines := strings.Split("0: output \n"+strings.ReplaceAll(p.Describe(), "node ", ""), "\n")
	lines = lines[:len(lines)-1]
	if len(lines) != p.NumNodes()+1 {
		t.Fatalf("%d plan lines for %d nodes", len(lines), p.NumNodes())
	}
	var missing []string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		var b strings.Builder
		if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
			t.Fatal(err)
		}
		labels := map[string]bool{}
		for _, m := range regexp.MustCompile(`"node":("(?:[^"\\]|\\.)*")`).FindAllStringSubmatch(b.String(), -1) {
			v, err := strconv.Unquote(m[1])
			if err != nil {
				t.Fatal(err)
			}
			labels[v] = true
		}
		missing = slices.DeleteFunc(slices.Clone(lines), func(line string) bool {
			for v := range labels {
				if strings.HasPrefix(line, v+" ") {
					return true
				}
			}
			return false
		})
		if len(missing) == 0 {
			return
		}
	}
	t.Errorf("no goroutine labelled with the prefix of:\n%s", strings.Join(missing, "\n"))
}
