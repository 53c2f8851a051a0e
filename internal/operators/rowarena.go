package operators

import (
	"sync"
	"sync/atomic"

	"shareddb/internal/types"
)

// Generation-scoped row memory (README "Memory discipline", the fifth
// lifetime). Every row an operator builds — join results, group-by output —
// is sliced from fixed-size value chunks owned by the generation's RowArena
// instead of being a heap object of its own. The plan creates one arena per
// generation and hands it to every CycleStart; when the generation's sink
// cycle has drained, the arena clears its chunks and returns them to the
// plan-wide RowPool. That is safe because nothing downstream of the sink
// keeps a Tuple.Row: the engine copies every delivered row through the
// statement's projection, and operator state (build tables, sort buffers,
// retained batches) is dropped in Finish, which every node runs before the
// sink sees its end-of-stream. Pipelined generations each own their chunks.

// rowChunkValues is the chunk size in values (40 bytes each: 40 KiB per
// chunk). A cycle abandons the tail of its last chunk and Release clears
// whole chunks, so the size trades that waste against how often a cycle
// takes the arena's mutex.
const rowChunkValues = 1024

// maxPooledRowChunks caps the free list (20 MiB) so one burst generation
// cannot pin its row memory forever; overflow chunks are dropped to the GC.
const maxPooledRowChunks = 512

// RowPool is the plan-wide free list of row chunks and idle arenas. Its
// mutex also guards every arena's chunk list: chunks change hands once per
// rowChunkValues values, so one lock is never contended enough to split.
type RowPool struct {
	mu     sync.Mutex
	chunks [][]types.Value
	arenas []*RowArena
}

// NewRowPool returns an empty pool.
func NewRowPool() *RowPool { return &RowPool{} }

// RowArena is one generation's row memory: the chunks its cycles drew.
type RowArena struct {
	pool *RowPool
	used [][]types.Value // guarded by pool.mu
}

// NewArena returns an empty arena for one generation.
func (p *RowPool) NewArena() *RowArena {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.arenas); n > 0 {
		a := p.arenas[n-1]
		p.arenas = p.arenas[:n-1]
		return a
	}
	return &RowArena{pool: p}
}

// chunk hands the calling cycle a fresh chunk (zeroed, or poisoned under the
// test hook — rows are fully written by their builders either way).
func (a *RowArena) chunk() []types.Value {
	p := a.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	var ch []types.Value
	if n := len(p.chunks); n > 0 {
		ch = p.chunks[n-1]
		p.chunks[n-1] = nil
		p.chunks = p.chunks[:n-1]
	} else {
		ch = make([]types.Value, rowChunkValues)
	}
	a.used = append(a.used, ch)
	return ch
}

// Release ends the generation: every chunk is cleared (so recycled memory
// pins no strings) and returned to the pool with the arena itself. The
// caller guarantees no cycle of the generation is still running and no row
// drawn from the arena is referenced any more.
func (a *RowArena) Release() {
	poison := poisonReleasedRows.Load()
	for _, ch := range a.used {
		if poison {
			for i := range ch {
				ch[i] = releasedRowValue
			}
		} else {
			clear(ch)
		}
	}
	p := a.pool
	p.mu.Lock()
	for i, ch := range a.used {
		if len(p.chunks) < maxPooledRowChunks {
			p.chunks = append(p.chunks, ch)
		}
		a.used[i] = nil
	}
	a.used = a.used[:0]
	p.arenas = append(p.arenas, a)
	p.mu.Unlock()
}

// releasedRowValue is what a released chunk holds under the poison hook: a
// value no fixture contains, so a row read after its generation drained
// shows up as a wrong answer in any differential.
var releasedRowValue = types.NewString("\x00released-row\x00")

var poisonReleasedRows atomic.Bool

// PoisonReleasedRowsForTest makes Release overwrite chunks with a sentinel
// instead of zeroing them and returns a restore func. The differential
// suites switch it on so that a row outliving its generation is a failed
// comparison rather than a silent alias of some later generation's row.
func PoisonReleasedRowsForTest() (restore func()) {
	old := poisonReleasedRows.Swap(true)
	return func() { poisonReleasedRows.Store(old) }
}

// NewRow returns an n-value row for the operator to fill, valid until the
// generation drains. It bump-allocates from the cycle's current chunk — the
// cursor is cycle-local, so only the cycle goroutine may call it — and takes
// a new chunk from the generation's arena when the current one is exhausted.
// Cycles without an arena (hand-built test nodes) allocate.
func (c *Cycle) NewRow(n int) types.Row {
	if len(c.rowChunk) < n {
		if c.rows == nil || n > rowChunkValues {
			return make(types.Row, n)
		}
		c.rowChunk = c.rows.chunk()
	}
	row := c.rowChunk[:n:n]
	c.rowChunk = c.rowChunk[n:]
	return row
}
