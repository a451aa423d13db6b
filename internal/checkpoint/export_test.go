package checkpoint

// Hooks for the external test package (manager_test.go, fuzz_test.go),
// which exercises the manager state encoding through package core, and
// core imports this package.
var (
	AppendFrame          = appendFrame
	AppendRecord         = appendRecord
	KindSnapshot         = kindSnapshot
	ReplayRecords        = replayRecords
	PreviousVersionFrame = previousVersionFrame
)
