package sql_test

import (
	"testing"

	"shareddb/internal/sql"
	"shareddb/internal/storage"
	"shareddb/internal/tpcw"
	"shareddb/internal/types"
)

// tpcwCatalog binds statements against the TPC-W schema.
type tpcwCatalog struct{ db *storage.Database }

func (c tpcwCatalog) TableSchema(name string) (*types.Schema, bool) {
	t := c.db.Table(name)
	if t == nil {
		return nil, false
	}
	return t.Schema(), true
}

// FuzzParsePlan feeds arbitrary text through the front end every engine
// shares: Parse, then PlanStatement against the TPC-W catalog. Either step
// may reject the text with an error; neither may panic. The seeds are every
// TPC-W statement, so mutations start from the shapes the engine serves.
func FuzzParsePlan(f *testing.F) {
	for _, text := range tpcw.StatementSQL() {
		f.Add(text)
	}
	db, err := storage.Open(storage.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	if err := tpcw.CreateSchema(db); err != nil {
		f.Fatal(err)
	}
	cat := tpcwCatalog{db: db}
	f.Fuzz(func(t *testing.T, text string) {
		stmt, err := sql.Parse(text)
		if err != nil {
			return
		}
		_, _ = sql.PlanStatement(stmt, cat)
	})
}
