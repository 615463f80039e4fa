//go:build race

package testenv

// Race reports whether the binary was built with the race detector.
const Race = true
