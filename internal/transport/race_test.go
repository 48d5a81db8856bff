//go:build race

package transport_test

func init() { raceEnabled = true }
