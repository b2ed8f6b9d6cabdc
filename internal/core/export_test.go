package core

// RefFloor exposes the test-side literal L(X) to the external test package.
var RefFloor = refFloor
