package runtime

// The helpers the external tests (package runtime_test) share with the
// internal ones.
var (
	WaitFor                = waitFor
	SeedFrom               = seedFrom
	TestOrigin             = testOrigin
	GPSSessionConfig       = gpsSessionConfig
	SaturatedSessionConfig = saturatedSessionConfig
	ShippedSessionConfig   = shippedSessionConfig
	BenchSessions          = benchSessions
	StepFleet              = stepFleet
	ReportPaced            = reportPaced
)
