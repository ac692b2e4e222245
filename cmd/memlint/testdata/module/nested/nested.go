// Package nested is its own module inside the fixture module: the
// loader must skip it like vendored code (neither linted nor
// type-checked), as the go tool does for nested modules.
package nested

func Broken() int { return "a nested module is not this module's code" }
