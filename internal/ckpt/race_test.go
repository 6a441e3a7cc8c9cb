//go:build race

package ckpt_test

// raceEnabled: the race detector makes sync.Pool drop a quarter of its
// Puts at random, so allocation budgets do not hold under -race.
const raceEnabled = true
