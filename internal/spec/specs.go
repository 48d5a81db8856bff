package spec

import (
	"errors"
	"fmt"

	"asymstream/internal/fsys"
	"asymstream/internal/kernel"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// This file defines the reproduction's standard abstract machines —
// the specifications client Ejects actually assume.

// DirectorySpec is the abstract directory machine of §2: Lookup of an
// absent name answers found=false (not an error); AddEntry, Lookup of
// the added name, DeleteEntry and List behave as a directory's should.
// Both fsys.Directory and fsys.DirectoryConcatenator satisfy it for
// Lookup/List; the mutating probes are in DirectoryMutableSpec because
// a concatenator (like a read-only directory view) need not accept
// them — S' need only be a superset of what the *client* assumes.
func DirectorySpec() Spec {
	return Spec{
		Name: "directory (lookup/list)",
		Probes: []Probe{
			{
				Name:    "lookup of an absent name answers found=false",
				Op:      fsys.OpLookup,
				Request: func() any { return &fsys.LookupRequest{Name: "spec-absent-name"} },
				Validate: func(raw any) error {
					rep, err := expect[*fsys.LookupReply](raw)
					if err != nil {
						return err
					}
					if rep.Found {
						return errors.New("phantom entry for an absent name")
					}
					return nil
				},
			},
			{
				Name:    "List yields a readable stream",
				Op:      fsys.OpList,
				Request: func() any { return &fsys.ListRequest{} },
				Validate: func(raw any) error {
					rep, err := expect[*fsys.ListReply](raw)
					if err != nil {
						return err
					}
					if rep.Stream.UID.IsNil() {
						return errors.New("List returned a nil stream UID")
					}
					return nil
				},
			},
		},
	}
}

// DirectoryMutableSpec extends DirectorySpec with the mutating
// operations: the full abstract directory.
func DirectoryMutableSpec() Spec {
	const name = "spec-probe-entry"
	target := uid.New()
	base := DirectorySpec()
	return Spec{
		Name: "directory (full)",
		Probes: append(base.Probes, []Probe{
			{
				Name:    "AddEntry binds a fresh name",
				Op:      fsys.OpAddEntry,
				Request: func() any { return &fsys.AddEntryRequest{Name: name, Target: target} },
			},
			{
				Name:    "Lookup finds the bound name",
				Op:      fsys.OpLookup,
				Request: func() any { return &fsys.LookupRequest{Name: name} },
				Validate: func(raw any) error {
					rep, err := expect[*fsys.LookupReply](raw)
					if err != nil {
						return err
					}
					if !rep.Found || rep.Target != target {
						return fmt.Errorf("bound name resolves to %v found=%v", rep.Target, rep.Found)
					}
					return nil
				},
			},
			{
				Name:    "DeleteEntry removes it",
				Op:      fsys.OpDeleteEntry,
				Request: func() any { return &fsys.DeleteEntryRequest{Name: name} },
				Validate: func(raw any) error {
					rep, err := expect[*fsys.DeleteEntryReply](raw)
					if err != nil {
						return err
					}
					if !rep.Existed {
						return errors.New("deleted entry did not exist")
					}
					return nil
				},
			},
		}...),
	}
}

// SourceSpec is the abstract stream source: it answers Transfer on the
// given channel with OK or End — "any Eject which responds to Read
// invocations is by definition a source" (§4).
func SourceSpec(channel transput.ChannelID) Spec {
	return Spec{
		Name: "stream source",
		Probes: []Probe{
			{
				Name:    "Transfer answers with data or end-of-stream",
				Op:      transput.OpTransfer,
				Request: func() any { return &transput.TransferRequest{Channel: channel, Max: 1} },
				Validate: func(raw any) error {
					rep, err := expect[*transput.TransferReply](raw)
					if err != nil {
						return err
					}
					switch rep.Status {
					case transput.StatusOK, transput.StatusEnd:
						return nil
					default:
						return fmt.Errorf("Transfer status %v", rep.Status)
					}
				},
			},
		},
	}
}

// SinkSpec is SourceSpec's dual, the abstract stream sink: it answers
// a Deliver of one item on the given channel with OK and its
// flow-control grant — write-only transput's "exact dual" of a source
// (§5).  A sink that is full once the item is in grants zero, so any
// grant that is not negative conforms.
func SinkSpec(channel transput.ChannelID) Spec {
	return Spec{
		Name: "stream sink",
		Probes: []Probe{
			{
				Name: "Deliver of one item answers OK with credits",
				Op:   transput.OpDeliver,
				Request: func() any {
					return &transput.DeliverRequest{Channel: channel, Items: [][]byte{[]byte("spec-probe-item")}}
				},
				Validate: func(raw any) error {
					rep, err := expect[*transput.DeliverReply](raw)
					if err != nil {
						return err
					}
					if rep.Status != transput.StatusOK {
						return fmt.Errorf("Deliver status %v", rep.Status)
					}
					if rep.Credits < 0 {
						return fmt.Errorf("Deliver granted %d credits", rep.Credits)
					}
					return nil
				},
			},
		},
	}
}

// MapSpec is §6's random-access abstract machine.
func MapSpec() Spec {
	return Spec{
		Name: "map (random access)",
		Probes: []Probe{
			{
				Name:    "Size answers",
				Op:      fsys.OpMapSize,
				Request: func() any { return &fsys.MapSizeRequest{} },
				Validate: func(raw any) error {
					rep, err := expect[*fsys.MapSizeReply](raw)
					if err != nil {
						return err
					}
					if rep.Size < 0 {
						return fmt.Errorf("negative size %d", rep.Size)
					}
					return nil
				},
			},
			{
				Name:    "ReadAt past the end reports EOF",
				Op:      fsys.OpMapReadAt,
				Request: func() any { return &fsys.MapReadAtRequest{Offset: 1 << 40, Length: 1} },
				Validate: func(raw any) error {
					rep, err := expect[*fsys.MapReadAtReply](raw)
					if err != nil {
						return err
					}
					if !rep.EOF || len(rep.Data) != 0 {
						return fmt.Errorf("past-end read: %d bytes eof=%v", len(rep.Data), rep.EOF)
					}
					return nil
				},
			},
		},
	}
}

// NotAStreamSpec observes the *refusal* of the transput protocol —
// §6's "may not support the transput protocol at all" as a checkable
// property.
func NotAStreamSpec() Spec {
	return Spec{
		Name: "refuses stream transput",
		Probes: []Probe{
			{
				Name:    "Transfer is refused",
				Op:      transput.OpTransfer,
				Request: func() any { return &transput.TransferRequest{Channel: transput.Chan(0), Max: 1} },
				AllowError: func(err error) bool {
					return errors.Is(err, kernel.ErrNoSuchOperation)
				},
			},
		},
	}
}
