package harness

import (
	"errors"
	"fmt"
	"os"
	"runtime/pprof"
)

// CPUProfile profiles the timed windows of a run and nothing between them
// (data loading, warm-up): each Window writes a CPU profile of its own, the
// first to the path given, the n-th to path.n, and names its file on
// stderr. go tool pprof merges the files it is given. A nil *CPUProfile
// runs every window unprofiled.
type CPUProfile struct {
	path string
	n    int
	err  error
}

// NewCPUProfile returns a profiler writing to path, or nil for "".
func NewCPUProfile(path string) *CPUProfile {
	if path == "" {
		return nil
	}
	return &CPUProfile{path: path}
}

// Window runs f, the timed window label names, under the CPU profiler.
func (p *CPUProfile) Window(label string, f func()) {
	if p == nil {
		f()
		return
	}
	p.n++
	name := p.path
	if p.n > 1 {
		name = fmt.Sprintf("%s.%d", p.path, p.n)
	}
	out, err := os.Create(name)
	if err == nil {
		if err = pprof.StartCPUProfile(out); err != nil {
			out.Close()
		}
	}
	if err != nil {
		p.err = errors.Join(p.err, err)
		f()
		return
	}
	fmt.Fprintf(os.Stderr, "cpuprofile: %s → %s\n", label, name)
	f()
	pprof.StopCPUProfile()
	p.err = errors.Join(p.err, out.Close())
}

// Err reports the first failures to create or write a profile (nil: none).
func (p *CPUProfile) Err() error {
	if p == nil {
		return nil
	}
	return p.err
}
