package circuit

// RandCircuit exposes the property tests' random-circuit generator to the
// external test package, whose tests drive it through packages that import
// this one.
var RandCircuit = randCircuit
