package dmscluster

// NewRouterBodyCap builds a router whose request-body cap is maxBodyBytes
// instead of the 256 MiB default, for the pipeline parity test.
var NewRouterBodyCap = newRouter
