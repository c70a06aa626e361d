/**
 * @file
 * @brief Tests of the LIBSVM model file format: save/load round trips and
 *        prediction invariance ("drop-in replacement" claim, paper §I).
 */

#include "plssvm/backends/openmp/csvm.hpp"
#include "plssvm/core/model.hpp"
#include "plssvm/core/predict.hpp"
#include "plssvm/datagen/make_classification.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/io/file_reader.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace {

using plssvm::data_set;
using plssvm::kernel_type;
using plssvm::model;
using plssvm::parameter;

[[nodiscard]] data_set<double> make_data(const kernel_type kt = kernel_type::linear) {
    (void) kt;
    plssvm::datagen::classification_params gen;
    gen.num_points = 96;
    gen.num_features = 6;
    gen.class_sep = 2.0;
    gen.flip_y = 0.0;
    return plssvm::datagen::make_classification<double>(gen);
}

class ModelIoAllKernels : public ::testing::TestWithParam<kernel_type> {};

TEST_P(ModelIoAllKernels, SaveLoadPreservesPredictions) {
    const auto data = make_data();
    parameter params{ GetParam() };
    params.gamma = 0.5;
    params.coef0 = 1.0;
    plssvm::backend::openmp::csvm<double> svm{ params };
    const auto trained = svm.fit(data, plssvm::solver_control{ .epsilon = 1e-8 });

    // one file per kernel: ctest runs the four instances in parallel processes
    const std::string path = "/tmp/plssvm_test_model_io_" + std::string{ plssvm::kernel_type_to_string(GetParam()) } + ".model";
    trained.save(path);
    const auto loaded = model<double>::load(path);

    EXPECT_EQ(loaded.params().kernel, params.kernel);
    EXPECT_EQ(loaded.num_support_vectors(), trained.num_support_vectors());
    EXPECT_NEAR(loaded.rho(), trained.rho(), 1e-12);

    const auto original = plssvm::predict_labels(trained, data.points());
    const auto reloaded = plssvm::predict_labels(loaded, data.points());
    EXPECT_EQ(original, reloaded);
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Kernels, ModelIoAllKernels,
                         ::testing::Values(kernel_type::linear, kernel_type::polynomial,
                                           kernel_type::rbf, kernel_type::sigmoid),
                         [](const auto &info) { return std::string{ plssvm::kernel_type_to_string(info.param) }; });

TEST(ModelIo, HeaderContainsLibsvmFields) {
    const auto data = make_data();
    plssvm::backend::openmp::csvm<double> svm{ parameter{ kernel_type::rbf } };
    const auto trained = svm.fit(data);
    const std::string path = "/tmp/plssvm_test_model_header.model";
    trained.save(path);

    std::ifstream file{ path };
    std::string contents{ std::istreambuf_iterator<char>{ file }, std::istreambuf_iterator<char>{} };
    EXPECT_NE(contents.find("svm_type c_svc"), std::string::npos);
    EXPECT_NE(contents.find("kernel_type rbf"), std::string::npos);
    EXPECT_NE(contents.find("nr_class 2"), std::string::npos);
    EXPECT_NE(contents.find("total_sv"), std::string::npos);
    EXPECT_NE(contents.find("rho"), std::string::npos);
    EXPECT_NE(contents.find("label"), std::string::npos);
    EXPECT_NE(contents.find("nr_sv"), std::string::npos);
    EXPECT_NE(contents.find("\nSV\n"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ModelIo, GammaPersistedEvenWhenDefaulted) {
    // training with the 1/num_features default must store the resolved gamma
    const auto data = make_data();
    plssvm::backend::openmp::csvm<double> svm{ parameter{ kernel_type::rbf } };  // gamma unset
    const auto trained = svm.fit(data);
    const std::string path = "/tmp/plssvm_test_model_gamma.model";
    trained.save(path);
    const auto loaded = model<double>::load(path);
    ASSERT_TRUE(loaded.params().gamma.has_value());
    EXPECT_DOUBLE_EQ(*loaded.params().gamma, 1.0 / 6.0);
    std::remove(path.c_str());
}

TEST(ModelIo, LoadRejectsMissingSvMarker) {
    const std::string path = "/tmp/plssvm_test_model_bad1.model";
    std::ofstream{ path } << "svm_type c_svc\nkernel_type linear\nnr_class 2\ntotal_sv 1\nrho 0\n";
    EXPECT_THROW((void) model<double>::load(path), plssvm::invalid_file_format_exception);
    std::remove(path.c_str());
}

TEST(ModelIo, LoadRejectsWrongSvCount) {
    const std::string path = "/tmp/plssvm_test_model_bad2.model";
    std::ofstream{ path } << "svm_type c_svc\nkernel_type linear\nnr_class 2\ntotal_sv 2\nrho 0\nlabel 1 -1\nSV\n0.5 1:1\n";
    EXPECT_THROW((void) model<double>::load(path), plssvm::invalid_file_format_exception);
    std::remove(path.c_str());
}

TEST(ModelIo, LoadRejectsNonBinaryModels) {
    const std::string path = "/tmp/plssvm_test_model_bad3.model";
    std::ofstream{ path } << "svm_type c_svc\nkernel_type linear\nnr_class 3\ntotal_sv 1\nrho 0\nSV\n0.5 1:1\n";
    EXPECT_THROW((void) model<double>::load(path), plssvm::invalid_file_format_exception);
    std::remove(path.c_str());
}

TEST(ModelIo, LoadRejectsUnsupportedSvmType) {
    const std::string path = "/tmp/plssvm_test_model_bad4.model";
    std::ofstream{ path } << "svm_type epsilon_svr\nkernel_type linear\nnr_class 2\ntotal_sv 1\nrho 0\nSV\n0.5 1:1\n";
    EXPECT_THROW((void) model<double>::load(path), plssvm::invalid_file_format_exception);
    std::remove(path.c_str());
}

TEST(ModelIo, BadSupportVectorNamesItsFileLine) {
    const std::string path = "/tmp/plssvm_test_model_bad_sv.model";
    std::ofstream{ path } << "svm_type c_svc\nkernel_type linear\nnr_class 2\ntotal_sv 2\nrho 0\nlabel 1 -1\nnr_sv 1 1\nSV\n"
                             "0.5 1:1.0\n"
                             "-0.5 1:abc\n";
    std::string error;
    try {
        (void) model<double>::load(path);
    } catch (const plssvm::invalid_file_format_exception &e) {
        error = e.what();
    }
    std::remove(path.c_str());
    EXPECT_NE(error.find("Line 10:"), std::string::npos) << error;
}

TEST(ModelIo, HandWrittenLibsvmModelLoads) {
    // a minimal model file as LIBSVM's svm-train would emit it
    const std::string path = "/tmp/plssvm_test_model_libsvm.model";
    std::ofstream{ path } << "svm_type c_svc\n"
                             "kernel_type linear\n"
                             "nr_class 2\n"
                             "total_sv 2\n"
                             "rho 0.25\n"
                             "label 1 -1\n"
                             "nr_sv 1 1\n"
                             "SV\n"
                             "0.5 1:1.0 2:2.0\n"
                             "-0.5 1:-1.0 2:-2.0\n";
    const auto loaded = model<double>::load(path);
    EXPECT_EQ(loaded.num_support_vectors(), 2U);
    EXPECT_EQ(loaded.num_features(), 2U);
    EXPECT_DOUBLE_EQ(loaded.rho(), 0.25);
    EXPECT_DOUBLE_EQ(loaded.positive_label(), 1.0);
    EXPECT_DOUBLE_EQ(loaded.negative_label(), -1.0);

    // decision value at (1, 2): 0.5*(1+4) - 0.5*(-1-4) - 0.25 = 5 - 0.25
    plssvm::aos_matrix<double> point{ 1, 2 };
    point(0, 0) = 1.0;
    point(0, 1) = 2.0;
    const auto values = plssvm::decision_values(loaded, point);
    EXPECT_NEAR(values[0], 4.75, 1e-12);
    std::remove(path.c_str());
}

TEST(Model, ConstructorValidatesSizes) {
    plssvm::aos_matrix<double> sv{ 2, 2 };
    EXPECT_THROW((model<double>{ parameter{}, sv, std::vector<double>{ 1.0 }, 0.0, 1.0, -1.0 }),
                 plssvm::invalid_data_exception);
}

TEST(Model, LabelFromDecision) {
    plssvm::aos_matrix<double> sv{ 1, 1 };
    const model<double> m{ parameter{}, sv, std::vector<double>{ 1.0 }, 0.0, 7.0, 3.0 };
    EXPECT_DOUBLE_EQ(m.label_from_decision(0.5), 7.0);
    EXPECT_DOUBLE_EQ(m.label_from_decision(-0.5), 3.0);
    EXPECT_DOUBLE_EQ(m.label_from_decision(0.0), 3.0);  // ties go negative
}

}  // namespace
