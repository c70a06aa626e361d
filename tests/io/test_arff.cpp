/**
 * @file
 * @brief Tests of the ARFF parser (PLSSVM's second input format).
 */

#include "plssvm/exceptions.hpp"
#include "plssvm/io/arff.hpp"
#include "plssvm/io/file_reader.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

using plssvm::io::file_reader;
using plssvm::io::parse_arff;

[[nodiscard]] file_reader make_reader(const std::string &content) {
    return file_reader::from_string(content, '\0');
}

constexpr const char *valid_header =
    "@RELATION test\n"
    "@ATTRIBUTE f0 NUMERIC\n"
    "@ATTRIBUTE f1 REAL\n"
    "@ATTRIBUTE class {-1,1}\n"
    "@DATA\n";

TEST(ArffParser, ParsesDenseRows) {
    const auto result = parse_arff<double>(make_reader(std::string{ valid_header } + "1.0,2.0,1\n-0.5,0.25,-1\n"));
    EXPECT_TRUE(result.has_labels);
    EXPECT_EQ(result.relation_name, "test");
    ASSERT_EQ(result.points.num_rows(), 2U);
    ASSERT_EQ(result.points.num_cols(), 2U);
    EXPECT_DOUBLE_EQ(result.points(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(result.points(1, 1), 0.25);
    EXPECT_DOUBLE_EQ(result.labels[0], 1.0);
    EXPECT_DOUBLE_EQ(result.labels[1], -1.0);
}

TEST(ArffParser, ParsesSparseRows) {
    const auto result = parse_arff<double>(make_reader(std::string{ valid_header } + "{0 2.5, 2 1}\n{1 -1.5, 2 -1}\n"));
    EXPECT_DOUBLE_EQ(result.points(0, 0), 2.5);
    EXPECT_DOUBLE_EQ(result.points(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(result.labels[0], 1.0);
    EXPECT_DOUBLE_EQ(result.points(1, 1), -1.5);
}

TEST(ArffParser, HeaderWithoutClassAttribute) {
    const auto result = parse_arff<double>(make_reader("@RELATION r\n@ATTRIBUTE a NUMERIC\n@DATA\n1.5\n2.5\n"));
    EXPECT_FALSE(result.has_labels);
    EXPECT_EQ(result.points.num_rows(), 2U);
}

TEST(ArffParser, SkipsPercentComments) {
    const auto result = parse_arff<double>(make_reader("% top comment\n" + std::string{ valid_header } + "1,2,1\n% mid comment\n3,4,-1\n"));
    EXPECT_EQ(result.points.num_rows(), 2U);
}

TEST(ArffParser, CaseInsensitiveDirectives) {
    const auto result = parse_arff<double>(make_reader("@relation r\n@attribute a numeric\n@data\n1\n2\n"));
    EXPECT_EQ(result.points.num_rows(), 2U);
}

TEST(ArffParser, MissingDataDirectiveThrows) {
    EXPECT_THROW((void) parse_arff<double>(make_reader("@RELATION r\n@ATTRIBUTE a NUMERIC\n")),
                 plssvm::invalid_file_format_exception);
}

TEST(ArffParser, NoFeatureAttributesThrows) {
    EXPECT_THROW((void) parse_arff<double>(make_reader("@RELATION r\n@DATA\n1\n")),
                 plssvm::invalid_file_format_exception);
}

TEST(ArffParser, ClassAttributeNotLastThrows) {
    EXPECT_THROW((void) parse_arff<double>(make_reader("@RELATION r\n@ATTRIBUTE class {0,1}\n@ATTRIBUTE a NUMERIC\n@DATA\n1,1\n")),
                 plssvm::invalid_file_format_exception);
}

TEST(ArffParser, WrongColumnCountThrows) {
    EXPECT_THROW((void) parse_arff<double>(make_reader(std::string{ valid_header } + "1.0,2.0\n")),
                 plssvm::invalid_file_format_exception);
    EXPECT_THROW((void) parse_arff<double>(make_reader(std::string{ valid_header } + "1,2,3,4\n")),
                 plssvm::invalid_file_format_exception);
}

TEST(ArffParser, InvalidNumericValueThrows) {
    EXPECT_THROW((void) parse_arff<double>(make_reader(std::string{ valid_header } + "a,b,1\n")),
                 plssvm::invalid_file_format_exception);
}

TEST(ArffParser, ErrorNamesTheFileLineNumber) {
    // the blank lines are skipped but still counted: the bad row is line 9
    std::string error;
    try {
        (void) parse_arff<double>(make_reader(std::string{ valid_header } + "\n1.0,2.0,1\n\n1.0,x,1\n"));
    } catch (const plssvm::invalid_file_format_exception &e) {
        error = e.what();
    }
    EXPECT_NE(error.find("ARFF line 9:"), std::string::npos) << error;
}

TEST(ArffParser, SparseIndexOutOfRangeThrows) {
    EXPECT_THROW((void) parse_arff<double>(make_reader(std::string{ valid_header } + "{7 1.0}\n")),
                 plssvm::invalid_file_format_exception);
}

TEST(ArffParser, NoDataRowsThrows) {
    EXPECT_THROW((void) parse_arff<double>(make_reader(valid_header)), plssvm::invalid_data_exception);
}

TEST(ArffParser, StringAttributeThrows) {
    EXPECT_THROW((void) parse_arff<double>(make_reader("@RELATION r\n@ATTRIBUTE a STRING\n@DATA\nfoo\n")),
                 plssvm::invalid_file_format_exception);
}

TEST(ArffWriter, RoundTripThroughFile) {
    plssvm::aos_matrix<double> points{ 2, 3 };
    points(0, 0) = 1.0;
    points(1, 2) = -0.5;
    const std::vector<double> labels{ 1.0, -1.0 };
    const std::string path = "/tmp/plssvm_test_roundtrip.arff";
    plssvm::io::write_arff_file(path, points, &labels, "roundtrip");

    const auto reparsed = plssvm::io::parse_arff_file<double>(path);
    EXPECT_EQ(reparsed.points, points);
    EXPECT_EQ(reparsed.labels, labels);
    EXPECT_EQ(reparsed.relation_name, "roundtrip");
    std::remove(path.c_str());
}

}  // namespace
