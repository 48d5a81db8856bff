//go:build race

package netsim_test

func init() { raceEnabled = true }
