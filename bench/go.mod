module efind/bench

go 1.22

require efind v0.0.0

replace efind => ../
