package operators

import "shareddb/internal/sql"

// The operator tests name aggregate functions unqualified.
const (
	AggCount = sql.AggCount
	AggSum   = sql.AggSum
	AggMin   = sql.AggMin
	AggMax   = sql.AggMax
	AggAvg   = sql.AggAvg
)
