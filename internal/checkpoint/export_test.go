package checkpoint

// Hooks for the external test package (manager_test.go, fuzz_test.go),
// which exercises the manager frame through package core, and core imports
// this package.
var (
	ReplayRecords        = replayRecords
	PreviousVersionFrame = previousVersionFrame
)

// Frame geometry, for tests that cut a payload out of a frame.
const (
	FrameHeaderLen = frameHeaderLen
	FrameTrailLen  = frameTrailLen
)
