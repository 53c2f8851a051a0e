package tpcw

import (
	"strings"
	"testing"
	"time"

	"shareddb/internal/baseline"
	"shareddb/internal/core"
	"shareddb/internal/storage"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

func smallScale() Scale { return Scale{Items: 100, Customers: 80} }

func setupDB(t testing.TB, scale Scale) (*storage.Database, *Generator) {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Setup(db, scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	return db, g
}

func TestSchemaAndLoad(t *testing.T) {
	db, g := setupDB(t, smallScale())
	defer db.Close()
	ts := db.SnapshotTS()
	counts := map[string]int{
		"country":  numCountries,
		"item":     100,
		"customer": 80,
		"author":   smallScale().Authors(),
		"orders":   smallScale().Orders(),
	}
	for table, want := range counts {
		if got := db.Table(table).CountVisible(ts); got != want {
			t.Errorf("%s rows = %d, want %d", table, got, want)
		}
	}
	if got := db.Table("order_line").CountVisible(ts); got < smallScale().Orders() {
		t.Errorf("order_line rows = %d, want >= orders", got)
	}
	if g.MaxOrderID != int64(smallScale().Orders()) {
		t.Errorf("MaxOrderID = %d", g.MaxOrderID)
	}
	// deterministic: same seed → same data
	db2, _ := setupDB(t, smallScale())
	defer db2.Close()
	row1, _ := db.Table("item").Visible(0, ts)
	row2, _ := db2.Table("item").Visible(0, db2.SnapshotTS())
	if row1[1].AsString() != row2[1].AsString() {
		t.Error("generator not deterministic")
	}
}

func TestAllStatementsPrepareOnAllSystems(t *testing.T) {
	db, _ := setupDB(t, smallScale())
	defer db.Close()
	shared, err := NewSharedSystem(db, core.Config{})
	if err != nil {
		t.Fatalf("SharedDB prepare failed: %v", err)
	}
	defer shared.Close()
	if _, err := NewBaselineSystem(db, baseline.SystemXLike); err != nil {
		t.Fatalf("SystemX prepare failed: %v", err)
	}
	if _, err := NewBaselineSystem(db, baseline.MySQLLike); err != nil {
		t.Fatalf("MySQL prepare failed: %v", err)
	}
}

func allSystems(t *testing.T, db *storage.Database) []System {
	t.Helper()
	shared, err := NewSharedSystem(db, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shared.Close)
	sx, err := NewBaselineSystem(db, baseline.SystemXLike)
	if err != nil {
		t.Fatal(err)
	}
	my, err := NewBaselineSystem(db, baseline.MySQLLike)
	if err != nil {
		t.Fatal(err)
	}
	return []System{shared, sx, my}
}

func TestEveryInteractionOnEverySystem(t *testing.T) {
	db, g := setupDB(t, smallScale())
	defer db.Close()
	ids := NewIDAllocator(g)
	for _, sys := range allSystems(t, db) {
		t.Run(sys.Name(), func(t *testing.T) {
			sess := NewSession(sys, smallScale(), ids, 7)
			for i := Interaction(0); i < NumInteractions; i++ {
				if err := sess.Run(i); err != nil {
					t.Errorf("%s failed: %v", i, err)
				}
			}
			// run the order pipeline twice more: cart → buy → display
			for round := 0; round < 2; round++ {
				for _, i := range []Interaction{ShoppingCart, BuyRequest, BuyConfirm, OrderDisplay} {
					if err := sess.Run(i); err != nil {
						t.Errorf("round %d %s failed: %v", round, i, err)
					}
				}
			}
		})
	}
}

// TestBuyConfirmConsistency verifies transactional integrity: after a
// purchase, the order exists, its lines match the former cart, and the cart
// is empty.
func TestBuyConfirmConsistency(t *testing.T) {
	db, g := setupDB(t, smallScale())
	defer db.Close()
	ids := NewIDAllocator(g)
	shared, err := NewSharedSystem(db, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()

	sess := NewSession(shared, smallScale(), ids, 99)
	if err := sess.Run(ShoppingCart); err != nil {
		t.Fatal(err)
	}
	cartID := sess.cartID
	cart, err := shared.Query(StGetCart, iv(cartID))
	if err != nil || len(cart) == 0 {
		t.Fatalf("cart: %v %d", err, len(cart))
	}
	beforeMax := ids.order.Load()
	if err := sess.Run(BuyConfirm); err != nil {
		t.Fatal(err)
	}
	oid := beforeMax + 1

	order, err := shared.Query(StGetMostRecentOrder, iv(oid))
	if err != nil || len(order) != 1 {
		t.Fatalf("order lookup: %v, %d rows", err, len(order))
	}
	lines, err := shared.Query(StGetMostRecentOrderLines, iv(oid))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(cart) {
		t.Errorf("order lines = %d, cart had %d", len(lines), len(cart))
	}
	after, err := shared.Query(StGetCart, iv(cartID))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 0 {
		t.Errorf("cart not cleared: %d lines", len(after))
	}
}

// TestSharedVsBaselineEveryReadStatement runs every read statement of the
// workload through the shared plan — whose join streams carry only the
// columns some statement demanded — and through the query-at-a-time
// baseline on identical, quiescent data, and compares full result
// multisets. All statements are prepared into one plan, so every join
// stream's layout is the union of what its statements demand.
func TestSharedVsBaselineEveryReadStatement(t *testing.T) {
	db, _ := setupDB(t, smallScale())
	defer db.Close()
	sx, err := NewBaselineSystem(db, baseline.SystemXLike)
	if err != nil {
		t.Fatal(err)
	}
	// A cart with lines, so the cart statements read something.
	for _, line := range [][]types.Value{{iv(7), iv(2), iv(11)}, {iv(7), iv(1), iv(12)}, {iv(8), iv(5), iv(11)}} {
		if _, err := sx.Exec(StAddLine, line...); err != nil {
			t.Fatal(err)
		}
	}

	params := map[StmtID][][]types.Value{
		StGetName:                 {{iv(5)}, {iv(0)}},
		StGetBook:                 {{iv(17)}},
		StGetCustomer:             {{sv("user000003")}},
		StDoSubjectSearch:         {{sv("ARTS")}, {sv("HISTORY")}},
		StDoTitleSearch:           {{sv("%e%")}, {sv("Title 0001%")}},
		StDoAuthorSearch:          {{sv("Lastname000%")}},
		StGetNewProducts:          {{sv("HISTORY")}},
		StGetMaxOrderID:           {nil},
		StGetBestSellers:          {{iv(0), sv("COOKING")}, {iv(20), sv("ARTS")}},
		StGetRelated:              {{iv(9)}},
		StGetUserName:             {{iv(5)}},
		StGetPassword:             {{sv("user000003")}},
		StGetMostRecentOrderID:    {{iv(3)}},
		StGetMostRecentOrder:      {{iv(3)}},
		StGetMostRecentOrderLines: {{iv(3)}},
		StGetCartLine:             {{iv(7), iv(11)}},
		StGetCart:                 {{iv(7)}, {iv(8)}},
		StGetCDiscount:            {{iv(5)}},
		StGetCAddr:                {{iv(5)}},
		StGetCountryID:            {{sv("Canada")}},
		StGetStock:                {{iv(17)}},
		StGetLatestOrderID:        {{iv(3)}},
	}
	shared, err := NewSharedSystem(db, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for id, sqlText := range StatementSQL() {
		if !strings.HasPrefix(sqlText, "SELECT") {
			continue
		}
		if len(params[StmtID(id)]) == 0 {
			t.Errorf("read statement %d has no parameters in this test: %s", id, sqlText)
		}
		for _, ps := range params[StmtID(id)] {
			got, err := shared.Query(StmtID(id), ps...)
			if err != nil {
				t.Fatalf("shared stmt %d: %v", id, err)
			}
			want, err := sx.Query(StmtID(id), ps...)
			if err != nil {
				t.Fatalf("baseline stmt %d: %v", id, err)
			}
			if !testutil.SameRows(got, want) {
				t.Errorf("stmt %d %v: shared %d rows, baseline %d rows\nshared   %v\nbaseline %v",
					id, ps, len(got), len(want), testutil.CanonRows(got), testutil.CanonRows(want))
			}
		}
	}
	shared.Close()
}

func TestDriverShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("driver run")
	}
	db, g := setupDB(t, smallScale())
	defer db.Close()
	shared, err := NewSharedSystem(db, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	ids := NewIDAllocator(g)

	for _, mix := range []Mix{Browsing, Shopping, Ordering} {
		m := RunDriver(shared, smallScale(), ids, DriverConfig{
			EBs: 8, Duration: 300 * time.Millisecond,
			ThinkTime: time.Millisecond, Mix: mix, Only: -1, Seed: 1,
		})
		if m.Total == 0 {
			t.Errorf("%s: no interactions completed", mix)
		}
		if m.Errors > 0 {
			t.Errorf("%s: %d errors of %d", mix, m.Errors, m.Total)
		}
		if m.WIPS() <= 0 {
			t.Errorf("%s: WIPS = %v", mix, m.WIPS())
		}
	}
}

func TestDriverSingleInteraction(t *testing.T) {
	if testing.Short() {
		t.Skip("driver run")
	}
	db, g := setupDB(t, smallScale())
	defer db.Close()
	shared, err := NewSharedSystem(db, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	ids := NewIDAllocator(g)
	m := RunDriver(shared, smallScale(), ids, DriverConfig{
		EBs: 4, Duration: 200 * time.Millisecond, ThinkTime: 0,
		Mix: Shopping, Only: BestSellers, Seed: 3,
	})
	if m.ByInter[BestSellers] != m.Total || m.Total == 0 {
		t.Errorf("single-interaction run: %d/%d", m.ByInter[BestSellers], m.Total)
	}
}

func TestMixWeights(t *testing.T) {
	for _, mix := range []Mix{Browsing, Shopping, Ordering} {
		w := mix.Weights()
		sum := 0.0
		for _, x := range w {
			if x < 0 {
				t.Errorf("%s: negative weight", mix)
			}
			sum += x
		}
		if sum < 99 || sum > 101 {
			t.Errorf("%s weights sum to %.2f, want ~100", mix, sum)
		}
	}
	// browsing is search-heavy; ordering is buy-heavy
	b, o := Browsing.Weights(), Ordering.Weights()
	if b[BestSellers] <= o[BestSellers] {
		t.Error("browsing should have more best-sellers")
	}
	if o[BuyConfirm] <= b[BuyConfirm] {
		t.Error("ordering should have more buy-confirms")
	}
}

func TestOfferedLoad(t *testing.T) {
	if got := OfferedLoad(700, 7*time.Second); got != 100 {
		t.Errorf("OfferedLoad = %v", got)
	}
}

func TestInteractionMetadata(t *testing.T) {
	if NumInteractions != 14 {
		t.Errorf("interactions = %d", NumInteractions)
	}
	seen := map[string]bool{}
	for i := Interaction(0); i < NumInteractions; i++ {
		name := i.String()
		if seen[name] {
			t.Errorf("duplicate name %s", name)
		}
		seen[name] = true
		if i.Timeout() <= 0 {
			t.Errorf("%s has no timeout", name)
		}
	}
	if AdminConfirm.Timeout() != 20*time.Second {
		t.Error("AdminConfirm timeout should be the long one")
	}
}

// setupShardedDBs loads the fixture across n shard databases through the
// sharded placement.
func setupShardedDBs(t testing.TB, n int, scale Scale) ([]*storage.Database, *Generator) {
	t.Helper()
	dbs := make([]*storage.Database, n)
	for i := range dbs {
		db, err := storage.Open(storage.Options{Shard: storage.ShardInfo{Index: i, Count: n}})
		if err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
	}
	g, err := SetupSharded(dbs, scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	return dbs, g
}

// TestShardedEveryInteraction runs all 14 web interactions (plus the order
// pipeline twice) on a 3-shard deployment: every TPC-W statement must
// classify for sharding and execute correctly through the router.
func TestShardedEveryInteraction(t *testing.T) {
	dbs, g := setupShardedDBs(t, 3, smallScale())
	defer func() {
		for _, db := range dbs {
			db.Close()
		}
	}()
	sys, err := NewShardedSystem(dbs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ids := NewIDAllocator(g)
	sess := NewSession(sys, smallScale(), ids, 7)
	for i := Interaction(0); i < NumInteractions; i++ {
		if err := sess.Run(i); err != nil {
			t.Errorf("%s failed: %v", i, err)
		}
	}
	for round := 0; round < 2; round++ {
		for _, i := range []Interaction{ShoppingCart, BuyRequest, BuyConfirm, OrderDisplay} {
			if err := sess.Run(i); err != nil {
				t.Errorf("round %d %s failed: %v", round, i, err)
			}
		}
	}
}

// TestShardedVsSingleResults compares read-statement results between the
// sharded deployment and the single engine over the same logical data.
func TestShardedVsSingleResults(t *testing.T) {
	db, _ := setupDB(t, smallScale())
	defer db.Close()
	single, err := NewSharedSystem(db, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	dbs, _ := setupShardedDBs(t, 3, smallScale())
	defer func() {
		for _, sdb := range dbs {
			sdb.Close()
		}
	}()
	sharded, err := NewShardedSystem(dbs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	checks := []struct {
		id     StmtID
		params []types.Value
	}{
		{StGetName, []types.Value{iv(5)}},
		{StGetBook, []types.Value{iv(17)}},
		{StGetCustomer, []types.Value{sv("user000003")}},
		{StDoSubjectSearch, []types.Value{sv("ARTS")}},
		{StGetNewProducts, []types.Value{sv("HISTORY")}},
		{StGetBestSellers, []types.Value{iv(0), sv("COOKING")}},
		{StGetRelated, []types.Value{iv(9)}},
		{StGetMaxOrderID, nil},
		{StGetMostRecentOrderLines, []types.Value{iv(3)}},
		{StGetCart, []types.Value{iv(1)}},
		{StGetLatestOrderID, []types.Value{iv(4)}},
	}
	for _, c := range checks {
		a, err := sharded.Query(c.id, c.params...)
		if err != nil {
			t.Fatalf("sharded stmt %d: %v", c.id, err)
		}
		b, err := single.Query(c.id, c.params...)
		if err != nil {
			t.Fatalf("single stmt %d: %v", c.id, err)
		}
		ca, cb := testutil.CanonRows(a), testutil.CanonRows(b)
		if len(ca) != len(cb) {
			t.Errorf("stmt %d: sharded %d rows, single %d rows", c.id, len(a), len(b))
			continue
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Errorf("stmt %d row %d: sharded %q, single %q", c.id, i, ca[i], cb[i])
				break
			}
		}
	}
}

// TestShardedDriverShortRun drives the full Shopping mix against a 2-shard
// deployment.
func TestShardedDriverShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("driver run")
	}
	dbs, g := setupShardedDBs(t, 2, smallScale())
	defer func() {
		for _, db := range dbs {
			db.Close()
		}
	}()
	sys, err := NewShardedSystem(dbs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ids := NewIDAllocator(g)
	m := RunDriver(sys, smallScale(), ids, DriverConfig{
		EBs: 8, Duration: 300 * time.Millisecond,
		ThinkTime: time.Millisecond, Mix: Shopping, Only: -1, Seed: 1,
	})
	if m.Total == 0 {
		t.Error("no interactions completed on the sharded system")
	}
	if m.Errors > 0 {
		t.Errorf("%d of %d interactions failed", m.Errors, m.Total)
	}
}

// TestDriverOverloadCountsShed runs the closed-loop driver against a
// SharedDB instance whose queue cap is far below the offered concurrency:
// admission rejections must land in Metrics.Shed (not Errors), the run must
// complete without deadlock, and the accounting must close.
func TestDriverOverloadCountsShed(t *testing.T) {
	if testing.Short() {
		t.Skip("driver run")
	}
	db, g := setupDB(t, smallScale())
	defer db.Close()
	shared, err := NewSharedSystem(db, core.Config{
		QueueDepthLimit:        2,
		MaxInFlightGenerations: 1,
		Heartbeat:              2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	ids := NewIDAllocator(g)

	m := RunDriver(shared, smallScale(), ids, DriverConfig{
		EBs: 24, Duration: 400 * time.Millisecond, ThinkTime: 0,
		Mix: Browsing, Only: -1, Seed: 11,
	})
	if m.Total == 0 {
		t.Fatal("no interactions offered")
	}
	if m.Errors > 0 {
		t.Fatalf("%d non-overload errors of %d", m.Errors, m.Total)
	}
	if m.Shed == 0 {
		t.Fatalf("24 EBs against a 2-deep queue must shed (total %d)", m.Total)
	}
	if m.Success == 0 {
		t.Fatal("overload must still admit interactions")
	}
	if got := m.Success + m.Late + m.Shed + m.Errors; got != m.Total {
		t.Fatalf("accounting: %d classified of %d total", got, m.Total)
	}
	if rate := m.ShedRate(); rate <= 0 || rate >= 1 {
		t.Fatalf("shed rate %v, want in (0, 1)", rate)
	}
}
