//transput:discipline readonly

// Package discfix exercises the discipline analyzer.  This file is
// tagged read-only: it may use the pull side (InPort/OutPort,
// Transfer) freely, and must never reach the push side (Pusher,
// WOInPort, Deliver).
package discfix

import (
	"asymstream/internal/transput"
)

// pullOnly is clean: the pull side belongs to the read-only
// discipline.
func pullOnly(p *transput.InPort) ([]byte, error) {
	return p.Next()
}

// directViolation names a push-side symbol outright.
func directViolation() string {
	return transput.OpDeliver // want "uses push-side symbol transput.OpDeliver"
}

// indirectViolation reaches the push side through an untagged helper
// two hops away.
func indirectViolation() any { // want "reaches push-side symbol"
	return helperHop()
}
