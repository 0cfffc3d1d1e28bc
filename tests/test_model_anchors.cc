/**
 * @file
 * catnap_model's SARIF anchors (tools/model/anchors.h): every property
 * must still resolve to the definition of the function it names, so a
 * rename or move fails here instead of silently mis-pointing the
 * code-scanning results.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "model/anchors.h"

namespace catnap_model {
namespace {

TEST(ModelAnchors, EveryPropertyResolvesToItsDefinition)
{
    for (const char *prop : {"P1", "P2", "P3", "P4", "P5", "P6"}) {
        const PropertyAnchor a = property_anchor(prop);
        const int line = resolve_anchor_line(CATNAP_SOURCE_DIR, a);
        ASSERT_GT(line, 0) << prop << ": " << a.function << " not in "
                           << a.uri;

        // Re-read the file from the resolved line: it must open with the
        // qualified name and reach a body '{' before any ';' -- the
        // definition, not a call or a declaration.
        std::ifstream in(std::string(CATNAP_SOURCE_DIR) + "/" + a.uri);
        std::string text;
        for (int i = 0; i < line; ++i)
            std::getline(in, text);
        EXPECT_EQ(text.find_first_not_of(" \t"),
                  text.find(std::string(a.function) + "("))
            << prop << " line " << line << ": " << text;
        std::string decl = text;
        while (decl.find_first_of("{;") == std::string::npos &&
               std::getline(in, text))
            decl += text;
        EXPECT_EQ(decl[decl.find_first_of("{;")], '{')
            << prop << ": " << a.function << " at line " << line
            << " is not a definition";
    }
}

TEST(ModelAnchors, MissingFunctionResolvesToZero)
{
    EXPECT_EQ(resolve_anchor_line(CATNAP_SOURCE_DIR,
                                  {"src/noc/router.cc", "Router::no_such"}),
              0);
    EXPECT_EQ(resolve_anchor_line(CATNAP_SOURCE_DIR,
                                  {"src/no_such_file.cc", "Router::fail"}),
              0);
}

} // namespace
} // namespace catnap_model
