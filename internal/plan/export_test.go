package plan

// NoFD turns the FD rules (the FD lift and the FD key) off for the
// statements prepared while it is set, so a test can compare their results
// with the plan compiled without them.
var NoFD = &noFD
