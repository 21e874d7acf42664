module fairdms/bench

go 1.24

require fairdms v0.0.0

replace fairdms => ../
