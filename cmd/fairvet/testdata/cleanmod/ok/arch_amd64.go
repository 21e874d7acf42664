package ok

// Wide reports whether this build has the amd64 path. Its !amd64 twin
// declares the same name: loading both would be a redeclaration.
func Wide() bool { return true }
