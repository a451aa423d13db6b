//go:build race

package apf_test

// raceEnabled reports a race-detector build, whose sync.Pool drops a share
// of Put items at random: an exact allocation count that rests on a pooled
// object being reused cannot hold there.
const raceEnabled = true
