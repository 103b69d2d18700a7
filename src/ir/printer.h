/**
 * @file
 * Textual IR output (the module format parse() reads back).
 *
 * One append-based implementation: appendFunction/appendModule write
 * into a caller's string, and every other entry point (the ostream
 * forms, moduleToString, Op::str) wraps them. Block and edge weights
 * print as printf("%.6g") would; integers print in decimal.
 */

#ifndef TREEGION_IR_PRINTER_H
#define TREEGION_IR_PRINTER_H

#include <iosfwd>
#include <string>

#include "ir/module.h"

namespace treegion::ir {

/** Append @p fn in textual IR form to @p out. */
void appendFunction(std::string &out, const Function &fn);

/** Append @p mod (header plus all functions) to @p out. */
void appendModule(std::string &out, const Module &mod);

/** Print @p fn in textual IR form to @p os. */
void printFunction(std::ostream &os, const Function &fn);

/** Print @p mod (header plus all functions) to @p os. */
void printModule(std::ostream &os, const Module &mod);

/** @return @p mod rendered as a string. */
std::string moduleToString(const Module &mod);

} // namespace treegion::ir

#endif // TREEGION_IR_PRINTER_H
