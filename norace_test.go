//go:build !race

package apf_test

const raceEnabled = false
