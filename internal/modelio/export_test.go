package modelio

// Helpers of the internal tests that the external modelio_test package
// (lint_test.go) shares.
var (
	FarmSpec   = farmSpec
	SeedModels = seedModels
)
