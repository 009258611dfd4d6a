package buffer

import (
	"testing"

	"bufir/internal/postings"
	"bufir/internal/storage"
)

// testEnv and goldenIndex are policytest's Env and GoldenIndex. This
// package's internal tests cannot import policytest (it imports
// buffer), so the external test package hands them over in its init.
var (
	testEnv     func(testing.TB) (*postings.Index, *storage.Store)
	goldenIndex func(testing.TB) (*postings.Index, [][]postings.Entry)
)

func SetFixtures(env func(testing.TB) (*postings.Index, *storage.Store), golden func(testing.TB) (*postings.Index, [][]postings.Entry)) {
	testEnv, goldenIndex = env, golden
}
