package operators

import (
	"sort"
	"sync"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// --- test fixtures ---

// allOutCols is the unpruned join layout concat(outer, inner) for
// hand-built join operators (the plan compiler prunes; these tests do not).
func allOutCols(outer, inner int) []OutCol {
	cols := make([]OutCol, 0, outer+inner)
	for i := 0; i < outer; i++ {
		cols = append(cols, OutCol{Col: i})
	}
	for i := 0; i < inner; i++ {
		cols = append(cols, OutCol{Inner: true, Col: i})
	}
	return cols
}

func newTestDB(t *testing.T) *storage.Database {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	users, err := db.CreateTable("users", types.NewSchema(
		types.Column{Qualifier: "users", Name: "user_id", Kind: types.KindInt},
		types.Column{Qualifier: "users", Name: "country", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := users.SetPrimaryKey("user_id"); err != nil {
		t.Fatal(err)
	}
	orders, err := db.CreateTable("orders", types.NewSchema(
		types.Column{Qualifier: "orders", Name: "o_id", Kind: types.KindInt},
		types.Column{Qualifier: "orders", Name: "o_user_id", Kind: types.KindInt},
		types.Column{Qualifier: "orders", Name: "o_status", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orders.SetPrimaryKey("o_id"); err != nil {
		t.Fatal(err)
	}
	var ops []storage.WriteOp
	for i := int64(0); i < 10; i++ {
		country := "CH"
		if i%2 == 1 {
			country = "DE"
		}
		ops = append(ops, storage.WriteOp{Table: "users", Kind: storage.WInsert,
			Row: types.Row{types.NewInt(i), types.NewString(country)}})
	}
	for i := int64(0); i < 30; i++ {
		status := "OK"
		if i%3 == 0 {
			status = "PENDING"
		}
		ops = append(ops, storage.WriteOp{Table: "orders", Kind: storage.WInsert,
			Row: types.Row{types.NewInt(i), types.NewInt(i % 10), types.NewString(status)}})
	}
	results, _ := db.ApplyOps(ops)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	return db
}

// testRig wires nodes, runs generations, and collects sink output.
type testRig struct {
	t     *testing.T
	nodes []*Node
	sink  *Node
	sop   *SinkOp

	mu      sync.Mutex
	results map[queryset.QueryID][]types.Row
	streams map[queryset.QueryID]int
	done    chan struct{}
}

func newRig(t *testing.T) *testRig {
	r := &testRig{t: t, sop: &SinkOp{}}
	r.sink = NewNode(999, "sink", r.sop)
	return r
}

func (r *testRig) node(name string, op Operator) *Node {
	n := NewNode(len(r.nodes), name, op)
	r.nodes = append(r.nodes, n)
	return n
}

func (r *testRig) start() {
	for _, n := range r.nodes {
		n.Start()
	}
	r.sink.Start()
}

func (r *testRig) stop() {
	for _, n := range r.nodes {
		n.Stop()
	}
	r.sink.Stop()
}

// runGen activates the given nodes with tasks and edge query-sets, runs one
// generation to completion, and returns per-query result rows.
func (r *testRig) runGen(gen, ts uint64, tasks map[*Node][]Task, edgeQueries map[*Edge][]queryset.QueryID) map[queryset.QueryID][]types.Row {
	r.mu.Lock()
	r.results = map[queryset.QueryID][]types.Row{}
	r.streams = map[queryset.QueryID]int{}
	r.mu.Unlock()
	r.done = make(chan struct{})

	for e, qs := range edgeQueries {
		e.SetQueries(gen, queryset.Of(qs...))
	}
	r.sop.SetHandler(gen, func(stream int, t Tuple) {
		r.mu.Lock()
		for _, q := range t.QS.IDs() {
			r.results[q] = append(r.results[q], t.Row)
			r.streams[q] = stream
		}
		r.mu.Unlock()
	})

	activeProducers := func(n *Node) int {
		c := 0
		for _, e := range n.Producers {
			if !e.QueriesFor(gen).Empty() {
				c++
			}
		}
		return c
	}
	// activate sink first so it is waiting, then interior nodes, then roots
	r.sink.Inbox().Push(Message{Ctrl: &CycleStart{
		Gen: gen, TS: ts, ActiveProducers: activeProducers(r.sink),
		OnDone: func() { close(r.done) },
	}})
	for n, ntasks := range tasks {
		n.Inbox().Push(Message{Ctrl: &CycleStart{
			Gen: gen, TS: ts, Tasks: ntasks, ActiveProducers: activeProducers(n),
		}})
	}
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[queryset.QueryID][]types.Row{}
	for q, rows := range r.results {
		out[q] = rows
	}
	return out
}

func eqExpr(col int, v types.Value) expr.Expr {
	return &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: col}, R: &expr.Const{Val: v}}
}

// --- tests ---

func TestScanToSink(t *testing.T) {
	db := newTestDB(t)
	rig := newRig(t)
	scan := rig.node("scan(users)", &ScanOp{Table: db.Table("users"), OutStream: 1})
	edge := Connect(scan, rig.sink)
	rig.start()
	defer rig.stop()

	res := rig.runGen(1, db.SnapshotTS(),
		map[*Node][]Task{scan: {
			{Query: 1, Spec: ScanSpec{Pred: eqExpr(1, types.NewString("CH"))}},
			{Query: 2, Spec: ScanSpec{Pred: eqExpr(1, types.NewString("DE"))}},
			{Query: 3, Spec: ScanSpec{}}, // all rows
		}},
		map[*Edge][]queryset.QueryID{edge: {1, 2, 3}},
	)
	if len(res[1]) != 5 || len(res[2]) != 5 || len(res[3]) != 10 {
		t.Errorf("row counts = %d/%d/%d, want 5/5/10", len(res[1]), len(res[2]), len(res[3]))
	}
}

func TestOutputRoutingRestrictsQuerySets(t *testing.T) {
	// Two consumers, each owning one query: tuples must arrive at each with
	// only that consumer's queries.
	db := newTestDB(t)
	rig := newRig(t)
	scan := rig.node("scan(users)", &ScanOp{Table: db.Table("users"), OutStream: 1})
	filt := rig.node("filter", &FilterOp{})
	e1 := Connect(scan, rig.sink) // Q1 direct
	e2 := Connect(scan, filt)     // Q2 via filter
	e3 := Connect(filt, rig.sink)
	rig.start()
	defer rig.stop()

	res := rig.runGen(1, db.SnapshotTS(),
		map[*Node][]Task{
			scan: {
				{Query: 1, Spec: ScanSpec{}},
				{Query: 2, Spec: ScanSpec{}},
			},
			filt: {
				{Query: 2, Spec: FilterSpec{Pred: eqExpr(0, types.NewInt(4))}},
			},
		},
		map[*Edge][]queryset.QueryID{e1: {1}, e2: {2}, e3: {2}},
	)
	if len(res[1]) != 10 {
		t.Errorf("Q1 = %d rows, want 10", len(res[1]))
	}
	if len(res[2]) != 1 || res[2][0][0].AsInt() != 4 {
		t.Errorf("Q2 = %v, want single row id 4", res[2])
	}
}

func TestSharedHashJoin(t *testing.T) {
	db := newTestDB(t)
	rig := newRig(t)
	uscan := rig.node("scan(users)", &ScanOp{Table: db.Table("users"), OutStream: 1})
	oscan := rig.node("scan(orders)", &ScanOp{Table: db.Table("orders"), OutStream: 2})
	join := &HashJoinOp{
		InnerKeyCols: []int{0}, // users.user_id
		InnerStream:  1,
		Outers:       map[int]JoinOuter{2: {KeyCols: []int{1}, OutStream: 3, OutCols: allOutCols(3, 2)}}, // orders.o_user_id
	}
	jnode := rig.node("join", join)
	ie := Connect(uscan, jnode)
	join.SetInnerEdge(ie)
	oe := Connect(oscan, jnode)
	se := Connect(jnode, rig.sink)
	rig.start()
	defer rig.stop()

	// Q1: CH users' OK orders; Q2: all users' PENDING orders.
	res := rig.runGen(1, db.SnapshotTS(),
		map[*Node][]Task{
			uscan: {
				{Query: 1, Spec: ScanSpec{Pred: eqExpr(1, types.NewString("CH"))}},
				{Query: 2, Spec: ScanSpec{}},
			},
			oscan: {
				{Query: 1, Spec: ScanSpec{Pred: eqExpr(2, types.NewString("OK"))}},
				{Query: 2, Spec: ScanSpec{Pred: eqExpr(2, types.NewString("PENDING"))}},
			},
			jnode: {
				{Query: 1, Spec: JoinSpec{}},
				{Query: 2, Spec: JoinSpec{}},
			},
		},
		map[*Edge][]queryset.QueryID{ie: {1, 2}, oe: {1, 2}, se: {1, 2}},
	)
	// validate against a hand computation: users 0,2,4,6,8 are CH; orders
	// i: user i%10, status OK unless i%3==0.
	wantQ1 := 0
	for i := 0; i < 30; i++ {
		if i%3 != 0 && (i%10)%2 == 0 {
			wantQ1++
		}
	}
	wantQ2 := 0
	for i := 0; i < 30; i++ {
		if i%3 == 0 {
			wantQ2++
		}
	}
	if len(res[1]) != wantQ1 {
		t.Errorf("Q1 = %d rows, want %d", len(res[1]), wantQ1)
	}
	if len(res[2]) != wantQ2 {
		t.Errorf("Q2 = %d rows, want %d", len(res[2]), wantQ2)
	}
	// join output schema: orders row ++ users row (outer ++ inner)
	for _, row := range res[1] {
		if len(row) != 5 {
			t.Fatalf("joined width = %d", len(row))
		}
		if row[1].AsInt() != row[3].AsInt() {
			t.Errorf("join key mismatch: %v", row)
		}
		if row[2].AsString() != "OK" || row[4].AsString() != "CH" {
			t.Errorf("Q1 predicate violated: %v", row)
		}
	}
}

func TestIndexJoin(t *testing.T) {
	db := newTestDB(t)
	rig := newRig(t)
	oscan := rig.node("scan(orders)", &ScanOp{Table: db.Table("orders"), OutStream: 1})
	join := &IndexJoinOp{
		Table:  db.Table("users"),
		Index:  db.Table("users").PrimaryKey(),
		Outers: map[int]JoinOuter{1: {KeyCols: []int{1}, OutStream: 2, OutCols: allOutCols(3, 2)}},
	}
	jnode := rig.node("ixjoin", join)
	oe := Connect(oscan, jnode)
	se := Connect(jnode, rig.sink)
	rig.start()
	defer rig.stop()

	// Q1 scans only OK orders; Q2 wants all. Each joins its user.
	res := rig.runGen(1, db.SnapshotTS(),
		map[*Node][]Task{
			oscan: {
				{Query: 1, Spec: ScanSpec{Pred: eqExpr(2, types.NewString("OK"))}},
				{Query: 2, Spec: ScanSpec{}},
			},
			jnode: {{Query: 1}, {Query: 2}},
		},
		map[*Edge][]queryset.QueryID{oe: {1, 2}, se: {1, 2}},
	)
	if len(res[2]) != 30 {
		t.Errorf("Q2 = %d rows, want 30", len(res[2]))
	}
	if len(res[1]) != 20 {
		t.Errorf("Q1 = %d rows, want 20", len(res[1]))
	}
	for q, rows := range res {
		for _, row := range rows {
			if row[1].AsInt() != row[3].AsInt() || (q == 1 && row[2].AsString() != "OK") {
				t.Errorf("Q%d got %v", q, row)
			}
		}
	}
}

func TestSharedSortAndTopN(t *testing.T) {
	db := newTestDB(t)
	rig := newRig(t)
	scan := rig.node("scan(orders)", &ScanOp{Table: db.Table("orders"), OutStream: 1})
	sortOp := &SortOp{Streams: map[int]SortStream{
		1: {Keys: []SortKey{{E: &expr.ColRef{Idx: 0}, Desc: true}}, OutStream: 1},
	}}
	snode := rig.node("sort", sortOp)
	e1 := Connect(scan, snode)
	e2 := Connect(snode, rig.sink)
	rig.start()
	defer rig.stop()

	res := rig.runGen(1, db.SnapshotTS(),
		map[*Node][]Task{
			scan: {
				{Query: 1, Spec: ScanSpec{}},
				{Query: 2, Spec: ScanSpec{Pred: eqExpr(2, types.NewString("OK"))}},
			},
			snode: {
				{Query: 1, Spec: SortSpec{}},         // full sort
				{Query: 2, Spec: SortSpec{Limit: 5}}, // Top-5
			},
		},
		map[*Edge][]queryset.QueryID{e1: {1, 2}, e2: {1, 2}},
	)
	if len(res[1]) != 30 {
		t.Fatalf("Q1 = %d rows", len(res[1]))
	}
	if !sort.SliceIsSorted(res[1], func(i, j int) bool {
		return res[1][i][0].AsInt() > res[1][j][0].AsInt()
	}) {
		t.Error("Q1 not descending")
	}
	if len(res[2]) != 5 {
		t.Fatalf("Q2 = %d rows, want 5", len(res[2]))
	}
	// top-5 OK orders by id desc: 29, 28, 26, 25, 23
	want := []int64{29, 28, 26, 25, 23}
	for i, w := range want {
		if res[2][i][0].AsInt() != w {
			t.Errorf("Q2[%d] = %d, want %d", i, res[2][i][0].AsInt(), w)
		}
	}
}

func TestSharedSortHeterogeneousStreams(t *testing.T) {
	// The Figure 2 situation: one sort consuming two streams with different
	// schemas, keyed on semantically equal columns.
	db := newTestDB(t)
	rig := newRig(t)
	uscan := rig.node("scan(users)", &ScanOp{Table: db.Table("users"), OutStream: 1})
	oscan := rig.node("scan(orders)", &ScanOp{Table: db.Table("orders"), OutStream: 2})
	sortOp := &SortOp{Streams: map[int]SortStream{
		1: {Keys: []SortKey{{E: &expr.ColRef{Idx: 0}}}, OutStream: 1}, // users.user_id
		2: {Keys: []SortKey{{E: &expr.ColRef{Idx: 1}}}, OutStream: 2}, // orders.o_user_id
	}}
	snode := rig.node("sort", sortOp)
	e1 := Connect(uscan, snode)
	e2 := Connect(oscan, snode)
	e3 := Connect(snode, rig.sink)
	rig.start()
	defer rig.stop()

	res := rig.runGen(1, db.SnapshotTS(),
		map[*Node][]Task{
			uscan: {{Query: 1, Spec: ScanSpec{}}},
			oscan: {{Query: 2, Spec: ScanSpec{}}},
			snode: {{Query: 1, Spec: SortSpec{}}, {Query: 2, Spec: SortSpec{}}},
		},
		map[*Edge][]queryset.QueryID{e1: {1}, e2: {2}, e3: {1, 2}},
	)
	if len(res[1]) != 10 || len(res[2]) != 30 {
		t.Fatalf("rows = %d/%d", len(res[1]), len(res[2]))
	}
	for i := 1; i < len(res[2]); i++ {
		if res[2][i][1].AsInt() < res[2][i-1][1].AsInt() {
			t.Fatal("Q2 stream not sorted by its own key column")
		}
	}
}

func TestSharedGroupBy(t *testing.T) {
	db := newTestDB(t)
	rig := newRig(t)
	scan := rig.node("scan(orders)", &ScanOp{Table: db.Table("orders"), OutStream: 1})
	gop := &GroupOp{
		Streams: map[int]GroupStream{
			1: {GroupCols: []int{1}, AggArgs: []expr.Expr{nil}}, // group by o_user_id, COUNT(*)
		},
		Aggs:      []AggDef{{Kind: AggCount}},
		OutStream: 5,
	}
	gnode := rig.node("group", gop)
	e1 := Connect(scan, gnode)
	e2 := Connect(gnode, rig.sink)
	rig.start()
	defer rig.stop()

	having := &expr.Cmp{Op: expr.GE, L: &expr.ColRef{Idx: 1}, R: &expr.Const{Val: types.NewInt(2)}}
	res := rig.runGen(1, db.SnapshotTS(),
		map[*Node][]Task{
			scan: {
				{Query: 1, Spec: ScanSpec{}},
				{Query: 2, Spec: ScanSpec{Pred: eqExpr(2, types.NewString("PENDING"))}},
			},
			gnode: {
				{Query: 1, Spec: GroupSpec{}},
				{Query: 2, Spec: GroupSpec{Having: having}},
			},
		},
		map[*Edge][]queryset.QueryID{e1: {1, 2}, e2: {1, 2}},
	)
	// Q1: every user has 3 orders → 10 groups with count 3.
	if len(res[1]) != 10 {
		t.Fatalf("Q1 groups = %d", len(res[1]))
	}
	for _, row := range res[1] {
		if row[1].AsInt() != 3 {
			t.Errorf("Q1 count = %v", row)
		}
	}
	// Q2: PENDING orders are 0,3,6,...,27 → users 0,3,6,9 get 1, user
	// i%10... compute: counts per user of multiples of 3 below 30: user j
	// has orders j, j+10, j+20; PENDING iff divisible by 3. Exactly one of
	// j, j+10, j+20 is divisible by 3 → every user has exactly 1 → HAVING
	// >= 2 eliminates all groups.
	if len(res[2]) != 0 {
		t.Errorf("Q2 groups = %d, want 0 (HAVING filtered)", len(res[2]))
	}
}

func TestGroupAggregates(t *testing.T) {
	db := newTestDB(t)
	rig := newRig(t)
	scan := rig.node("scan(orders)", &ScanOp{Table: db.Table("orders"), OutStream: 1})
	gop := &GroupOp{
		Streams: map[int]GroupStream{
			1: {GroupCols: nil, AggArgs: []expr.Expr{
				&expr.ColRef{Idx: 0}, // SUM(o_id)
				&expr.ColRef{Idx: 0}, // MIN(o_id)
				&expr.ColRef{Idx: 0}, // MAX(o_id)
				&expr.ColRef{Idx: 0}, // AVG(o_id)
				&expr.ColRef{Idx: 1}, // COUNT(DISTINCT o_user_id)
			}},
		},
		Aggs: []AggDef{
			{Kind: AggSum}, {Kind: AggMin}, {Kind: AggMax}, {Kind: AggAvg},
			{Kind: AggCount, Distinct: true},
		},
		OutStream: 9,
	}
	gnode := rig.node("group", gop)
	e1 := Connect(scan, gnode)
	e2 := Connect(gnode, rig.sink)
	rig.start()
	defer rig.stop()

	res := rig.runGen(1, db.SnapshotTS(),
		map[*Node][]Task{
			scan:  {{Query: 1, Spec: ScanSpec{}}},
			gnode: {{Query: 1, Spec: GroupSpec{}}},
		},
		map[*Edge][]queryset.QueryID{e1: {1}, e2: {1}},
	)
	if len(res[1]) != 1 {
		t.Fatalf("scalar aggregate rows = %d", len(res[1]))
	}
	row := res[1][0]
	if row[0].AsInt() != 435 { // sum 0..29
		t.Errorf("SUM = %v", row[0])
	}
	if row[1].AsInt() != 0 || row[2].AsInt() != 29 {
		t.Errorf("MIN/MAX = %v/%v", row[1], row[2])
	}
	if row[3].AsFloat() != 14.5 {
		t.Errorf("AVG = %v", row[3])
	}
	if row[4].AsInt() != 10 {
		t.Errorf("COUNT(DISTINCT user) = %v", row[4])
	}
}

func TestMultiGenerationReuse(t *testing.T) {
	// The always-on plan serves many generations (paper §3.2: the global
	// plan "may be reused over a long period of time").
	db := newTestDB(t)
	rig := newRig(t)
	scan := rig.node("scan(users)", &ScanOp{Table: db.Table("users"), OutStream: 1})
	edge := Connect(scan, rig.sink)
	rig.start()
	defer rig.stop()

	for gen := uint64(1); gen <= 5; gen++ {
		country := "CH"
		if gen%2 == 0 {
			country = "DE"
		}
		res := rig.runGen(gen, db.SnapshotTS(),
			map[*Node][]Task{scan: {
				{Query: queryset.QueryID(gen * 10), Spec: ScanSpec{Pred: eqExpr(1, types.NewString(country))}},
			}},
			map[*Edge][]queryset.QueryID{edge: {queryset.QueryID(gen * 10)}},
		)
		if len(res[queryset.QueryID(gen*10)]) != 5 {
			t.Fatalf("gen %d: %d rows", gen, len(res[queryset.QueryID(gen*10)]))
		}
	}
}

func TestSyncedQueue(t *testing.T) {
	q := NewSyncedQueue()
	q.Push(Message{Gen: 1})
	q.Push(Message{Gen: 2})
	if q.Len() != 2 {
		t.Errorf("Len = %d", q.Len())
	}
	m, ok := q.Pop()
	if !ok || m.Gen != 1 {
		t.Error("FIFO violated")
	}
	done := make(chan Message)
	go func() {
		m, _ := q.Pop()
		m2, _ := q.Pop()
		done <- m
		done <- m2
	}()
	q.Push(Message{Gen: 3})
	if got := <-done; got.Gen != 2 {
		t.Errorf("got gen %d", got.Gen)
	}
	if got := <-done; got.Gen != 3 {
		t.Errorf("blocking pop got gen %d", got.Gen)
	}
	q.Close()
	if _, ok := q.Pop(); ok {
		t.Error("Pop after close+drain should report !ok")
	}
	q.Push(Message{Gen: 4}) // no-op
	if q.Len() != 0 {
		t.Error("push after close should be dropped")
	}
}

func TestLargeBatchFlush(t *testing.T) {
	// more rows than batchSize forces mid-cycle flushes
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, _ := db.CreateTable("big", types.NewSchema(types.Col("n", types.KindInt)))
	var ops []storage.WriteOp
	for i := 0; i < 3*batchSize+7; i++ {
		ops = append(ops, storage.WriteOp{Table: "big", Kind: storage.WInsert,
			Row: types.Row{types.NewInt(int64(i))}})
	}
	db.ApplyOps(ops)

	rig := newRig(t)
	scan := rig.node("scan(big)", &ScanOp{Table: big, OutStream: 1})
	edge := Connect(scan, rig.sink)
	rig.start()
	defer rig.stop()
	res := rig.runGen(1, db.SnapshotTS(),
		map[*Node][]Task{scan: {{Query: 1, Spec: ScanSpec{}}}},
		map[*Edge][]queryset.QueryID{edge: {1}},
	)
	if len(res[1]) != 3*batchSize+7 {
		t.Errorf("rows = %d, want %d", len(res[1]), 3*batchSize+7)
	}
}

func TestFigure2Topology(t *testing.T) {
	// The paper's Figure 2: join2's outer input receives join1 output (for
	// Q3-style queries) AND bare orders tuples (for Q4-style queries).
	db := newTestDB(t)
	rig := newRig(t)
	uscan := rig.node("scan(users)", &ScanOp{Table: db.Table("users"), OutStream: 1})
	oscan := rig.node("scan(orders)", &ScanOp{Table: db.Table("orders"), OutStream: 2})

	// join1: orders ⋈ users (inner = users)
	join1 := &HashJoinOp{
		InnerKeyCols: []int{0}, InnerStream: 1,
		Outers: map[int]JoinOuter{2: {KeyCols: []int{1}, OutStream: 3, OutCols: allOutCols(3, 2)}},
	}
	j1 := rig.node("join1", join1)
	ie1 := Connect(uscan, j1)
	join1.SetInnerEdge(ie1)
	oe1 := Connect(oscan, j1)

	// join2: X ⋈ users-by-pk via index join, where X is either join1 output
	// (stream 3: orders++users, key = users.user_id at col 3) or bare
	// orders (stream 2: key = o_user_id at col 1). A second users join is
	// artificial but exercises exactly the heterogeneous-outer mechanics.
	join2 := &IndexJoinOp{
		Table: db.Table("users"), Index: db.Table("users").PrimaryKey(),
		Outers: map[int]JoinOuter{
			3: {KeyCols: []int{3}, OutStream: 4, OutCols: allOutCols(5, 2)},
			2: {KeyCols: []int{1}, OutStream: 5, OutCols: allOutCols(3, 2)},
		},
	}
	j2 := rig.node("join2", join2)
	e13 := Connect(j1, j2)
	e23 := Connect(oscan, j2)
	es := Connect(j2, rig.sink)
	rig.start()
	defer rig.stop()

	res := rig.runGen(1, db.SnapshotTS(),
		map[*Node][]Task{
			uscan: {{Query: 3, Spec: ScanSpec{}}},
			oscan: {
				{Query: 3, Spec: ScanSpec{Pred: eqExpr(2, types.NewString("OK"))}},
				{Query: 4, Spec: ScanSpec{Pred: eqExpr(2, types.NewString("PENDING"))}},
			},
			j1: {{Query: 3, Spec: JoinSpec{}}},
			j2: {
				{Query: 3},
				{Query: 4},
			},
		},
		map[*Edge][]queryset.QueryID{
			ie1: {3}, oe1: {3}, e13: {3}, e23: {4}, es: {3, 4},
		},
	)
	if len(res[3]) != 20 { // OK orders
		t.Errorf("Q3 = %d rows, want 20", len(res[3]))
	}
	for _, row := range res[3] {
		if len(row) != 7 { // orders(3) + users(2) + users(2)
			t.Fatalf("Q3 width = %d", len(row))
		}
	}
	if len(res[4]) != 10 { // PENDING orders
		t.Errorf("Q4 = %d rows, want 10", len(res[4]))
	}
	for _, row := range res[4] {
		if len(row) != 5 { // orders(3) + users(2)
			t.Fatalf("Q4 width = %d", len(row))
		}
	}
}

func TestFilterPerQueryPredicates(t *testing.T) {
	db := newTestDB(t)
	rig := newRig(t)
	scan := rig.node("scan(users)", &ScanOp{Table: db.Table("users"), OutStream: 1})
	fnode := rig.node("filter", &FilterOp{})
	e1 := Connect(scan, fnode)
	e2 := Connect(fnode, rig.sink)
	rig.start()
	defer rig.stop()

	res := rig.runGen(1, db.SnapshotTS(),
		map[*Node][]Task{
			scan: {{Query: 1, Spec: ScanSpec{}}, {Query: 2, Spec: ScanSpec{}}},
			fnode: {
				{Query: 1, Spec: FilterSpec{Pred: eqExpr(1, types.NewString("CH"))}},
				{Query: 2, Spec: FilterSpec{Pred: eqExpr(1, types.NewString("DE"))}},
			},
		},
		map[*Edge][]queryset.QueryID{e1: {1, 2}, e2: {1, 2}},
	)
	if len(res[1]) != 5 || len(res[2]) != 5 {
		t.Errorf("rows = %d/%d", len(res[1]), len(res[2]))
	}
	for _, r := range res[1] {
		if r[1].AsString() != "CH" {
			t.Errorf("Q1 leak: %v", r)
		}
	}
}
