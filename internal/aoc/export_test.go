package aoc

// FlatCoef is the LSU stride rule and OracleFlatCoef its test-only oracle,
// exposed to the sweep over every kernel the repo builds (sweep_test.go).
var (
	FlatCoef       = flatCoef
	OracleFlatCoef = oracleFlatCoef
)
