module versionstamp/cmd/bench

go 1.22

require versionstamp v0.0.0

replace versionstamp => ../..
