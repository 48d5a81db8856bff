// Package staleok exercises the suppression checker: a live vet:ok
// keeps suppressing, a stale one (its analyzer no longer fires there)
// is itself reported, an annotation for a registered analyzer outside
// the run is left alone, and one naming no registered analyzer is
// reported.
package staleok

func spin() {
	for {
		step()
	}
}

func step() {}

// Live: the suppression matches a real goroleak finding on its line,
// so it stays silent.
func SpawnReviewed() {
	go spin() //vet:ok goroleak -- fixture's reviewed deviation
}

// Stale: nothing fires on or below the annotation; the annotation
// itself becomes the finding.
//
//vet:ok goroleak -- was reviewed once, the code moved on // want "stale suppression"
func Quiet() {}

// Out of scope: waitcycle did not run, so a goroleak-only run cannot
// judge this annotation and must not flag it.
//
//vet:ok waitcycle -- judged only when waitcycle runs
func AlsoQuiet() {}

// Unknown: no analyzer of that name is registered, so no run can judge
// the annotation; every run reports it.
//
//vet:ok nosuchanalyzer -- its analyzer was deleted // want "names no registered analyzer"
func Orphan() {}
