//go:build !race

package ckpt_test

const raceEnabled = false
