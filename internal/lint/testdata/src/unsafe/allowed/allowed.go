// Package allowed proves //aarohi:allow silences the unsafe analyzer.
package allowed

//aarohi:allow unsafe fixture: prove the suppression silences the import
import "unsafe"

// Size reports the size of a pointer.
func Size() uintptr { return unsafe.Sizeof(uintptr(0)) }
