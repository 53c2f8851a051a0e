// Package baseline implements the classic query-at-a-time execution model
// that the paper compares SharedDB against (§5.2): every query gets its own
// plan and its own thread of execution, with no cross-query sharing. It
// runs over the same storage manager so that measured differences come from
// the execution model, not the data structures.
//
// Two profiles stand in for the paper's baselines:
//
//   - SystemXLike — a well-tuned commercial engine: hash joins and index
//     nested-loop joins, unbounded worker parallelism. Fastest on point
//     queries; per-query cost grows linearly with concurrency.
//   - MySQLLike — MySQL 5.1/InnoDB: no hash join (MySQL gained one only in
//     8.0.18), so non-indexed equi-joins degrade to nested loops, and
//     effective parallelism is capped at 12 workers, reproducing the "MySQL
//     does not scale beyond twelve cores" observation (§5.4, citing
//     Salomie et al.).
package baseline

import (
	"fmt"
	"sort"

	"shareddb/internal/expr"
	"shareddb/internal/sql"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// Profile selects the baseline personality.
type Profile int

// Profiles.
const (
	SystemXLike Profile = iota
	MySQLLike
)

func (p Profile) String() string {
	if p == MySQLLike {
		return "MySQLLike"
	}
	return "SystemXLike"
}

// mysqlWorkerCap is the effective parallelism plateau of the MySQL profile.
const mysqlWorkerCap = 12

// Engine is a query-at-a-time executor.
type Engine struct {
	db      *storage.Database
	profile Profile
	sem     chan struct{} // nil = unbounded
}

// New creates a baseline engine over db.
func New(db *storage.Database, profile Profile) *Engine {
	e := &Engine{db: db, profile: profile}
	if profile == MySQLLike {
		e.sem = make(chan struct{}, mysqlWorkerCap)
	}
	return e
}

// Database returns the underlying storage.
func (e *Engine) Database() *storage.Database { return e.db }

// Stmt is a prepared statement.
type Stmt struct {
	SQL       string
	NumParams int
	selectLP  sql.LogicalPlan
	write     *sql.WritePlan
	engine    *Engine
}

type dbCatalog struct{ db *storage.Database }

func (c dbCatalog) TableSchema(name string) (*types.Schema, bool) {
	t := c.db.Table(name)
	if t == nil {
		return nil, false
	}
	return t.Schema(), true
}

// Prepare parses and plans a statement.
func (e *Engine) Prepare(sqlText string) (*Stmt, error) {
	ast, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	bound, err := sql.PlanStatement(ast, dbCatalog{e.db})
	if err != nil {
		return nil, err
	}
	s := &Stmt{SQL: sqlText, NumParams: sql.NumParams(ast), engine: e}
	switch b := bound.(type) {
	case sql.LogicalPlan:
		s.selectLP = b
	case *sql.WritePlan:
		s.write = b
	default:
		return nil, fmt.Errorf("baseline: unsupported statement %T", bound)
	}
	return s, nil
}

// Result carries the outcome of one execution.
type Result struct {
	Rows         []types.Row
	RowsAffected int
}

// Exec runs the statement immediately on the calling goroutine — the
// query-at-a-time model: "traditional database systems allocate a separate
// thread for each query" (§3.5). The MySQL profile gates on its worker
// semaphore first.
func (s *Stmt) Exec(params []types.Value) (Result, error) {
	e := s.engine
	if e.sem != nil {
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
	}
	if s.write != nil {
		op, err := bindWrite(s.write, params)
		if err != nil {
			return Result{}, err
		}
		results, _ := e.db.ApplyOps([]storage.WriteOp{op})
		return Result{RowsAffected: results[0].RowsAffected}, results[0].Err
	}
	return s.ExecAt(params, e.db.SnapshotTS())
}

// ExecAt runs a read statement at an explicit snapshot timestamp. MVCC
// version history is immutable (absent GC), so executing at a past snapshot
// reproduces exactly the state a concurrent reader saw there — this is what
// lets differential tests check the shared engine's pipelined generations,
// each of which reads at its own snapshot, against the query-at-a-time
// model after the fact.
func (s *Stmt) ExecAt(params []types.Value, ts uint64) (Result, error) {
	if s.write == nil {
		rows, err := s.engine.execPlan(s.selectLP, params, ts)
		if err != nil {
			return Result{}, err
		}
		return Result{Rows: rows}, nil
	}
	return Result{}, fmt.Errorf("baseline: ExecAt requires a read statement, got %q", s.SQL)
}

// BufferInTx buffers this write statement's bound operation into tx,
// for multi-statement transactions.
func (s *Stmt) BufferInTx(tx *storage.Tx, params []types.Value) error {
	if s.write == nil {
		return fmt.Errorf("baseline: %q is not a write statement", s.SQL)
	}
	op, err := bindWrite(s.write, params)
	if err != nil {
		return err
	}
	switch op.Kind {
	case storage.WInsert:
		tx.Insert(op.Table, op.Row)
	case storage.WUpdate:
		tx.Update(op.Table, op.Pred, op.Set)
	case storage.WDelete:
		tx.Delete(op.Table, op.Pred)
	}
	return nil
}

// ExecTx commits a storage transaction (used by multi-statement TPC-W
// interactions).
func (e *Engine) ExecTx(tx *storage.Tx) error {
	if e.sem != nil {
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
	}
	return tx.Commit()
}

func bindWrite(wp *sql.WritePlan, params []types.Value) (storage.WriteOp, error) {
	switch wp.Kind {
	case sql.WriteInsert:
		row := make(types.Row, len(wp.Values))
		for i, v := range wp.Values {
			row[i] = v.Eval(nil, params)
		}
		return storage.WriteOp{Table: wp.Table, Kind: storage.WInsert, Row: row}, nil
	case sql.WriteUpdate:
		set := make([]storage.ColSet, len(wp.Set))
		for i, sc := range wp.Set {
			set[i] = storage.ColSet{Col: sc.Col, Val: expr.Bind(sc.Val, params)}
		}
		return storage.WriteOp{Table: wp.Table, Kind: storage.WUpdate,
			Pred: expr.Bind(wp.Pred, params), Set: set}, nil
	case sql.WriteDelete:
		return storage.WriteOp{Table: wp.Table, Kind: storage.WDelete,
			Pred: expr.Bind(wp.Pred, params)}, nil
	default:
		return storage.WriteOp{}, fmt.Errorf("baseline: unknown write kind %d", wp.Kind)
	}
}

// execPlan interprets a logical plan pull-style, materializing intermediate
// results (classic query-at-a-time execution over main-memory data).
func (e *Engine) execPlan(lp sql.LogicalPlan, params []types.Value, ts uint64) ([]types.Row, error) {
	switch n := lp.(type) {
	case *sql.Scan:
		return e.execScan(n, params, ts)
	case *sql.Filter:
		in, err := e.execPlan(n.In, params, ts)
		if err != nil {
			return nil, err
		}
		out := in[:0]
		for _, r := range in {
			if expr.TruthyEval(n.Pred, r, params) {
				out = append(out, r)
			}
		}
		return out, nil
	case *sql.Join:
		return e.execJoin(n, params, ts)
	case *sql.Group:
		return e.execGroup(n, params, ts)
	case *sql.Sort:
		in, err := e.execPlan(n.In, params, ts)
		if err != nil {
			return nil, err
		}
		sortRows(in, n.Keys, params)
		return in, nil
	case *sql.Limit:
		in, err := e.execPlan(n.In, params, ts)
		if err != nil {
			return nil, err
		}
		if len(in) > n.N {
			in = in[:n.N]
		}
		return in, nil
	case *sql.Project:
		in, err := e.execPlan(n.In, params, ts)
		if err != nil {
			return nil, err
		}
		out := make([]types.Row, len(in))
		for i, r := range in {
			row := make(types.Row, len(n.Exprs))
			for j, pe := range n.Exprs {
				row[j] = pe.Eval(r, params)
			}
			out[i] = row
		}
		return out, nil
	case *sql.Distinct:
		in, err := e.execPlan(n.In, params, ts)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		out := in[:0]
		for _, r := range in {
			k := types.EncodeKey(r...)
			if !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("baseline: unsupported plan node %T", lp)
	}
}

func sortRows(rows []types.Row, keys []sql.SortKey, params []types.Value) {
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range keys {
			va := k.Expr.Eval(rows[a], params)
			vb := k.Expr.Eval(rows[b], params)
			d := va.Compare(vb)
			if d == 0 {
				continue
			}
			if k.Desc {
				return d > 0
			}
			return d < 0
		}
		return false
	})
}
