package core

// RefFloor exposes the test-side literal L(X) to the external test package.
var RefFloor = refFloor

// RandomProblem exposes the package tests' random instance generator to the
// external test package's benchmarks.
var RandomProblem = randomProblem
