module elmocomp/bench

go 1.22

require elmocomp v0.0.0

replace elmocomp => ../
