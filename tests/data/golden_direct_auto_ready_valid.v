module run(
  input clk,
  input rst,
  input [7:0] x,
  input [7:0] y,
  input [3:0] e,
  input in_valid,
  input out_ready,
  output [15:0] z_out,
  output [3:0] e_out,
  output out_valid,
  output in_ready
);
  wire enable;
  wire valid_0;
  reg valid_1;
  reg valid_2;
  reg valid_3;
  reg valid_4;
  reg [15:0] mul__mulXY;
  reg [7:0] addA__sumXY;
  reg [7:0] addA__x;
  reg [7:0] addB__sum2XY;
  reg [15:0] merged_mul_mul__mulXY;
  wire [7:0] merged_mul_mul__sum2XY;
  reg [15:0] xor__z;
  reg [3:0] xor__e;
  wire [15:0] mul__mulXY__c;
  wire [7:0] addA__sumXY__c;
  wire [7:0] addB__sum2XY__c;
  wire [15:0] xor__z__c;
  reg [15:0] xor__z__d1;
  reg [3:0] xor__e__d1;
  reg [3:0] xor__e__d2;
  reg [3:0] xor__e__d3;
  assign enable = out_ready;
  assign in_ready = out_ready;
  assign valid_0 = in_valid;
  always @(posedge clk) begin
    if (rst) valid_1 <= 1'd0;
    else if (enable) valid_1 <= valid_0;
  end
  always @(posedge clk) begin
    if (rst) valid_2 <= 1'd0;
    else if (enable) valid_2 <= valid_1;
  end
  always @(posedge clk) begin
    if (rst) valid_3 <= 1'd0;
    else if (enable) valid_3 <= valid_2;
  end
  always @(posedge clk) begin
    if (rst) valid_4 <= 1'd0;
    else if (enable) valid_4 <= valid_3;
  end
  assign mul__mulXY__c = x * y;
  always @(posedge clk) begin
    if (rst) mul__mulXY <= 16'd0;
    else if (enable) mul__mulXY <= mul__mulXY__c;
  end
  assign addA__sumXY__c = x + y;
  always @(posedge clk) begin
    if (rst) addA__sumXY <= 8'd0;
    else if (enable) addA__sumXY <= addA__sumXY__c;
  end
  always @(posedge clk) begin
    if (rst) addA__x <= 8'd0;
    else if (enable) addA__x <= x;
  end
  assign addB__sum2XY__c = addA__sumXY + addA__x;
  always @(posedge clk) begin
    if (rst) addB__sum2XY <= 8'd0;
    else if (enable) addB__sum2XY <= addB__sum2XY__c;
  end
  always @(posedge clk) begin
    if (rst) merged_mul_mul__mulXY <= 16'd0;
    else if (enable) merged_mul_mul__mulXY <= mul__mulXY;
  end
  assign merged_mul_mul__sum2XY = addB__sum2XY;
  assign xor__z__c = merged_mul_mul__sum2XY ^ merged_mul_mul__mulXY;
  always @(posedge clk) begin
    if (rst) xor__z__d1 <= 16'd0;
    else if (enable) xor__z__d1 <= xor__z__c;
  end
  always @(posedge clk) begin
    if (rst) xor__z <= 16'd0;
    else if (enable) xor__z <= xor__z__d1;
  end
  always @(posedge clk) begin
    if (rst) xor__e__d1 <= 4'd0;
    else if (enable) xor__e__d1 <= e;
  end
  always @(posedge clk) begin
    if (rst) xor__e__d2 <= 4'd0;
    else if (enable) xor__e__d2 <= xor__e__d1;
  end
  always @(posedge clk) begin
    if (rst) xor__e__d3 <= 4'd0;
    else if (enable) xor__e__d3 <= xor__e__d2;
  end
  always @(posedge clk) begin
    if (rst) xor__e <= 4'd0;
    else if (enable) xor__e <= xor__e__d3;
  end
  assign z_out = xor__z;
  assign e_out = xor__e;
  assign out_valid = valid_4;
endmodule
