//go:build !amd64

package ok

// Wide reports whether this build has the amd64 path.
func Wide() bool { return false }
