module shareddb/bench

go 1.22

require shareddb v0.0.0

replace shareddb => ../
