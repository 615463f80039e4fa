//go:build !race

// Package testenv tells tests what kind of binary they are running in.
package testenv

// Race reports whether the binary was built with the race detector. Under
// it sync.Pool drops a share of what is Put, so allocation counts that rest
// on a warm pool do not repeat and tests asserting them skip.
const Race = false
