//go:build race

package transput

func init() { raceEnabled = true }
